package mis

// Flat (dist.RoundProgram) form of Luby's algorithm — a
// segment-for-segment transliteration of the blocking program in Run:
// identical RNG draws (one Float64 per iteration regardless of activity),
// identical sends, identical barrier structure, hence bit-identical output
// and Stats (TestFlatMatchesCoroutine). Keep the two in lockstep when
// changing either.

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

type phase uint8

const (
	phR1     phase = iota // parked on the priority-exchange round
	phR2                  // parked on the join-announce round
	phR3                  // parked on the retire-announce round
	phOracle              // parked on the StepOr convergence probe
)

type machine struct {
	inMIS  []bool
	iters  int
	oracle bool

	ph        phase
	it        int
	active    bool
	member    bool
	mine      priority
	nbrActive []bool
}

func (m *machine) Init(nd *dist.Node) bool {
	m.active = true
	m.nbrActive = make([]bool, nd.Deg())
	for p := range m.nbrActive {
		m.nbrActive[p] = true
	}
	m.iterationTop(nd)
	return true
}

// iterationTop is the loop-head segment: draw this iteration's priority
// (always, like the blocking form — the draw is unconditional there too)
// and exchange it among active nodes.
func (m *machine) iterationTop(nd *dist.Node) {
	m.mine = priority{val: nd.Rand().Float64(), id: nd.ID()}
	if m.active {
		for p := 0; p < nd.Deg(); p++ {
			if m.nbrActive[p] {
				nd.Send(p, m.mine)
			}
		}
	}
	m.ph = phR1
}

func (m *machine) finish(nd *dist.Node) bool {
	m.inMIS[nd.ID()] = m.member
	return false
}

func (m *machine) OnRound(nd *dist.Node, in []dist.Incoming) bool {
	switch m.ph {
	case phR1:
		// Round 2: local maxima join and announce.
		if m.active {
			win := true
			for _, d := range in {
				if q, ok := d.Msg.(priority); ok && q.beats(m.mine) {
					win = false
					break
				}
			}
			if win {
				m.member = true
				m.active = false
				nd.SendAll(joined{})
			}
		}
		m.ph = phR2
		return true

	case phR2:
		// Round 3: dominated neighbors retire and announce.
		wasActive := m.active
		for _, d := range in {
			if _, ok := d.Msg.(joined); ok {
				m.nbrActive[d.Port] = false
				m.active = false
			}
		}
		if wasActive && !m.active {
			nd.SendAll(retired{})
		}
		m.ph = phR3
		return true

	case phR3:
		for _, d := range in {
			if _, ok := d.Msg.(retired); ok {
				m.nbrActive[d.Port] = false
			}
		}
		if m.oracle {
			nd.SubmitOr(m.active)
			m.ph = phOracle
			return true
		}
		m.it++
		if m.it >= m.iters {
			return m.finish(nd)
		}
		m.iterationTop(nd)
		return true

	case phOracle:
		if !nd.GlobalOr() {
			return m.finish(nd)
		}
		m.it++
		m.iterationTop(nd)
		return true
	}
	panic("mis: OnRound on a completed machine")
}

// runFlat is the flat implementation behind Run/RunWithConfig.
func runFlat(g *graph.Graph, cfg dist.Config, oracle bool) ([]bool, *dist.Stats) {
	inMIS := make([]bool, g.N())
	iters := Budget(g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		return &machine{inMIS: inMIS, iters: iters, oracle: oracle}
	})
	return inMIS, stats
}

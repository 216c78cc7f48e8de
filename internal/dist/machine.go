package dist

// Machine composition: the framework that lets round-structured
// sub-protocols written as state machines nest inside one RoundProgram,
// the way blocking sub-protocols nest inside one blocking program by
// plain function call. It generalizes the israeliitai.ClassMachine
// pattern (which internal/lpr drives per weight class): a Machine is a
// resumable protocol fragment, Seq chains fragments — sequences, loops,
// conditionals — into larger fragments, and AsProgram turns the outermost
// fragment into a RoundProgram the flat backend executes with zero stack
// switches. internal/core composes its Algorithm 2-4 pipeline (counting
// BFS, conflict-graph MIS token walk, commit broadcast, repeated per
// (ℓ, class) iteration) this way; see DESIGN.md §1.
//
// The correspondence with blocking composition is exact. A blocking
// sub-protocol occupies a contiguous run of its caller's segments: the
// caller's code before the call and the sub-protocol's code before its
// first Step share a segment, and the sub-protocol's code after its last
// Step and the caller's code after the call share one too. Machine
// mirrors both seams: Start is the fragment's first segment piece (run in
// the parent's current segment), each OnRound consumes one finished
// round, and a true return from either hands the rest of that same
// segment back to the parent — which may chain the next Machine's Start
// there, exactly as a blocking caller would invoke the next sub-protocol
// before its next Step. A faithful transliteration therefore reproduces
// the blocking original round for round, send for send, RNG draw for RNG
// draw — the property the flat-vs-reference differential suites assert.

// Machine is a composable protocol fragment in state-machine form. The
// contract mirrors RoundProgram with inverted completion polarity (done
// instead of again), because the interesting event for a parent is "this
// fragment finished inside the current segment, the rest of the segment
// is mine":
//
//   - Start runs the fragment's first segment piece — everything a
//     blocking sub-protocol does before its first Step. It reports true
//     if the fragment completed without reaching a barrier (a
//     zero-iteration loop body, an empty class); the caller then owns
//     the rest of the segment. On false the caller must end its segment
//     and route subsequent inboxes to OnRound.
//   - OnRound consumes the messages delivered by the round that just
//     ended and runs the next segment piece, reporting true when the
//     fragment completed within this call.
//
// A Machine may Send, draw randomness, and use SubmitOr/SubmitMax +
// GlobalOr/GlobalMax under the same rules as a RoundProgram. Machines
// are typically given a Reset method and reused across iterations and
// runs; the engine never retains one.
type Machine interface {
	Start(nd *Node) (done bool)
	OnRound(nd *Node, in []Incoming) (done bool)
}

// Seq chains sub-machines into one Machine. The next callback is the
// sequencing policy: called whenever the previous sub-machine finished
// (and once at Start), it arms and returns the next sub-machine to run,
// or nil to complete the sequence. Because next is consulted again after
// every completion, it expresses straight-line sequences, loops (return
// the same machine re-armed), and data-dependent branches (inspect the
// previous machine's results) alike — the flat counterpart of the
// blocking code between two sub-protocol calls.
//
// Sub-machines that complete without reaching a barrier are chained
// within the current segment, exactly like consecutive blocking calls
// that never Step.
//
// A Seq does not rewind at Start: to reuse one across iterations or
// runs, Reset it with a fresh (or rewound) policy first, the way the
// composed machines in internal/core re-arm their embedded Seqs.
type Seq struct {
	next func(nd *Node) Machine
	cur  Machine
}

// Reset arms the sequence with a fresh policy; the first sub-machine is
// not consulted until Start.
func (s *Seq) Reset(next func(nd *Node) Machine) { s.next, s.cur = next, nil }

// Start begins the sequence: it chains sub-machine Starts within the
// current segment until one parks or the policy returns nil.
func (s *Seq) Start(nd *Node) (done bool) { return s.advance(nd) }

// OnRound routes the finished round to the running sub-machine and, on
// its completion, chains further sub-machines within this segment.
func (s *Seq) OnRound(nd *Node, in []Incoming) (done bool) {
	if !s.cur.OnRound(nd, in) {
		return false
	}
	return s.advance(nd)
}

func (s *Seq) advance(nd *Node) bool {
	for {
		s.cur = s.next(nd)
		if s.cur == nil {
			return true
		}
		if !s.cur.Start(nd) {
			return false
		}
	}
}

// SeqOf arms a Seq over a fixed machine list — the plain "run these in
// order" composition. The machines must already be armed.
func SeqOf(ms ...Machine) *Seq {
	s := &Seq{}
	i := 0
	s.Reset(func(*Node) Machine {
		if i >= len(ms) {
			return nil
		}
		m := ms[i]
		i++
		return m
	})
	return s
}

// ProbeOr is the one-round global-OR oracle probe as a Machine — the
// composable form of the blocking StepOr(local) with its messages
// discarded. After it completes, Result holds the aggregate. The typical
// use is a convergence check between loop iterations: arm with the local
// "still have work" bit, run, branch on Result in the Seq policy.
type ProbeOr struct {
	local  bool
	Result bool
}

// Reset arms the probe with this node's submission.
func (p *ProbeOr) Reset(local bool) { p.local, p.Result = local, false }

func (p *ProbeOr) Start(nd *Node) (done bool) {
	nd.SubmitOr(p.local)
	return false
}

func (p *ProbeOr) OnRound(nd *Node, in []Incoming) (done bool) {
	p.Result = nd.GlobalOr()
	return true
}

// ProbeMax is ProbeOr for the global-max oracle (identity -Inf) — the
// composable StepMax.
type ProbeMax struct {
	local  float64
	Result float64
}

// Reset arms the probe with this node's submission.
func (p *ProbeMax) Reset(local float64) { p.local, p.Result = local, 0 }

func (p *ProbeMax) Start(nd *Node) (done bool) {
	nd.SubmitMax(p.local)
	return false
}

func (p *ProbeMax) OnRound(nd *Node, in []Incoming) (done bool) {
	p.Result = nd.GlobalMax()
	return true
}

// machineProgram adapts an outermost Machine into a RoundProgram.
type machineProgram struct {
	m      Machine
	finish func(nd *Node)
}

// AsProgram wraps a Machine as the node's whole RoundProgram. finish, if
// non-nil, runs in the machine's final segment — the place a blocking
// program records its outputs between its last Step and its return;
// sends made there are still delivered.
func AsProgram(m Machine, finish func(nd *Node)) RoundProgram {
	return &machineProgram{m: m, finish: finish}
}

func (p *machineProgram) Init(nd *Node) (again bool) {
	if p.m.Start(nd) {
		if p.finish != nil {
			p.finish(nd)
		}
		return false
	}
	return true
}

func (p *machineProgram) OnRound(nd *Node, in []Incoming) (again bool) {
	if p.m.OnRound(nd, in) {
		if p.finish != nil {
			p.finish(nd)
		}
		return false
	}
	return true
}

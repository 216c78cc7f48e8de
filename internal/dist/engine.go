package dist

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"weak"

	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// Config configures one Run.
type Config struct {
	// Seed is the root of all randomness: node v draws from the stream
	// rng.ForkSeed(Seed, v). Identical seeds give bit-identical runs
	// regardless of Workers or goroutine scheduling.
	Seed uint64
	// Profile records a per-round traffic profile into Stats.Profile.
	Profile bool
	// Workers is the number of chunk workers resuming nodes and folding
	// reductions. 0 sizes the pool from the input: one worker per
	// workPerWorker nodes plus directed arcs, at least one, at most
	// GOMAXPROCS (see defaultWorkers). A positive value is an explicit
	// override, which the worker-independence tests use to force the
	// multi-worker paths on small graphs. Results do not depend on it.
	Workers int
	// MaxRounds aborts (panics) a run that exceeds this many rounds —
	// a guard against protocols that fail to converge. 0 means no limit.
	MaxRounds int
	// ActiveSet restricts the run to the listed node ids (nil means every
	// node): only listed nodes are stepped — inactive nodes execute no
	// program segments, send and receive nothing, and their RNG streams
	// never advance — so per-round cost is O(active), not O(n). Results
	// are bit-identical to a full-sweep run of a protocol whose unlisted
	// nodes are silent observers (see active.go). Duplicates are ignored;
	// ids must lie in [0, n); an empty non-nil slice steps no nodes. For
	// run-to-run control use the Runner mutation API (SetActive,
	// ExpandByHops, ClearActive) instead.
	ActiveSet []int32
	// Faults installs a deterministic fault schedule the engine applies at
	// round boundaries (see fault.go): node crashes, in-flight message
	// drops, injected panics. nil means a fault-free run. For run-to-run
	// control use Runner.SetFaultPlan instead.
	Faults *FaultPlan
}

// abortPanic unwinds a node program when the engine cancels the run; the
// coroutine-side recover in runProgram swallows it.
type abortPanic struct{}

// Node is one logical processor of the simulated network. Exactly one
// goroutine — the node's program — may use a Node, and only between Run's
// invocation of the program and the program's return.
//
// The struct holds only the node's immutable geometry — 32 bytes, two per
// cache line — so the barrier sweep streams it read-only. All mutable
// per-node state lives in engine-side struct-of-arrays slabs indexed by
// id: the started/done flags in engine.state (one byte per node, scanned
// sequentially by the sweeps), RNG streams in engine.rnds, coroutine
// handles in engine.coNext/coYield, flat machines in engine.progs.
type Node struct {
	id   int32
	deg  int32
	base int32 // first directed-arc index in the engine's flat port tables
	_    int32 // pad to 32 bytes: an aligned Node never straddles lines

	eng *engine
	wk  *worker // owning chunk worker; parked while the program runs
}

// Per-node lifecycle bits in engine.state.
const (
	stStarted uint8 = 1 << iota // flat: Init ran; coroutine: body entered
	stDone                      // program returned (or unwound); never step again
)

// ID returns this node's identifier in [0, N).
func (nd *Node) ID() int { return int(nd.id) }

// N returns the network size.
func (nd *Node) N() int { return nd.eng.n }

// Deg returns this node's degree (its port count).
func (nd *Node) Deg() int { return int(nd.deg) }

// NbrID returns the identifier of the neighbor behind port p.
func (nd *Node) NbrID(p int) int { return int(nd.eng.nbr[nd.base+int32(p)]) }

// EdgeID returns the global undirected edge id behind port p.
func (nd *Node) EdgeID(p int) int { return int(nd.eng.eid[nd.base+int32(p)]) }

// EdgeWeight returns the weight of the edge behind port p: the graph's
// own weight, unless the engine carries a mutable weight overlay (see
// Runner.SetEdgeWeight).
func (nd *Node) EdgeWeight(p int) float64 {
	if w := nd.eng.weights; w != nil {
		return w[nd.EdgeID(p)]
	}
	return nd.eng.g.Weight(nd.EdgeID(p))
}

// EdgeLive reports whether the edge behind port p is active under the
// engine's activation mask (see Runner.SetEdgeLive). Without a mask every
// edge is live. Sends on dead edges are dropped by the engine, so a
// protocol that never inspects the mask still executes exactly as if the
// dead edges were absent from the topology; EdgeLive is for protocols
// that want to skip the work of composing a message at all.
func (nd *Node) EdgeLive(p int) bool {
	lv := nd.eng.liveEdge
	return lv == nil || lv[nd.eng.eid[nd.base+int32(p)]]
}

// Side returns this node's bipartition side (0 = X, 1 = Y); it panics on a
// non-bipartite graph, like graph.Side.
func (nd *Node) Side() int { return nd.eng.g.Side(int(nd.id)) }

// Bipartite reports whether the underlying graph is bipartite.
func (nd *Node) Bipartite() bool { return nd.eng.g.IsBipartite() }

// MaxDegree returns the graph's maximum degree Δ (global knowledge the
// paper's algorithms assume).
func (nd *Node) MaxDegree() int { return nd.eng.g.MaxDegree() }

// Rand returns this node's private deterministic random stream.
func (nd *Node) Rand() *rng.Rand { return &nd.eng.rnds[nd.id] }

// Send buffers msg for delivery on port p at the end of this round. A
// second Send on the same port in the same round overwrites the first.
// A send on a dead edge (see Runner.SetEdgeLive) is silently dropped and
// charges no traffic: under an activation mask the link does not exist.
//
// Slot choice follows the engine's delivery mode (see the mailbox
// comment on engine): a staged engine writes the sender's own out-slot
// nxt[base+p], a scatter engine writes the receiver-side slot
// nxt[dest[base+p]].
func (nd *Node) Send(p int, msg Message) {
	if uint32(p) >= uint32(nd.deg) {
		panic(fmt.Sprintf("dist: node %d Send on port %d, degree %d", nd.id, p, nd.deg))
	}
	if msg == nil {
		panic("dist: Send of nil message")
	}
	e := nd.eng
	a := nd.base + int32(p)
	if lv := e.liveEdge; lv != nil && !lv[e.eid[a]] {
		return
	}
	if cr := e.crashed; cr != nil && cr[e.nbr[a]] {
		// Crashed receiver: unlike a dead edge, the link exists and the
		// sender cannot know — the send is charged, then lost.
		nd.account(msg.Bits(), 1)
		nd.wk.suppressed++
		return
	}
	if e.staged {
		e.nxt[a] = msg
	} else {
		e.nxt[e.dest[a]] = msg
	}
	nd.account(msg.Bits(), 1)
}

// SendAll buffers msg on every live port (every port when no activation
// mask is installed).
func (nd *Node) SendAll(msg Message) {
	deg := int(nd.deg)
	if deg == 0 {
		return
	}
	if msg == nil {
		panic("dist: SendAll of nil message")
	}
	e := nd.eng
	lo := int(nd.base)
	if e.liveEdge != nil || e.crashed != nil {
		lv, cr := e.liveEdge, e.crashed
		eid := e.eid[lo : lo+deg]
		nbr := e.nbr[lo : lo+deg]
		sent, lost := 0, 0
		for i := 0; i < deg; i++ {
			if lv != nil && !lv[eid[i]] {
				continue // dead edge: the link does not exist, no charge
			}
			if cr != nil && cr[nbr[i]] {
				sent++ // crashed receiver: charged, then lost
				lost++
				continue
			}
			if e.staged {
				e.nxt[lo+i] = msg
			} else {
				e.nxt[e.dest[lo+i]] = msg
			}
			sent++
		}
		if sent > 0 {
			nd.account(msg.Bits(), sent)
		}
		nd.wk.suppressed += int64(lost)
		return
	}
	if e.staged {
		out := e.nxt[lo : lo+deg]
		for i := range out {
			out[i] = msg
		}
	} else {
		nxt := e.nxt
		for _, d := range e.dest[lo : lo+deg] {
			nxt[d] = msg
		}
	}
	nd.account(msg.Bits(), deg)
}

// account charges traffic straight to the owning worker's round counters:
// the worker is parked while the program runs, so the node has exclusive
// access.
func (nd *Node) account(bits, msgs int) {
	w := nd.wk
	w.msgs += int64(msgs)
	w.bits += int64(bits) * int64(msgs)
	if int32(bits) > w.maxBits {
		w.maxBits = int32(bits)
	}
}

// Step ends the current round and returns the messages delivered to this
// node, in increasing port order. All nodes advance in lockstep.
//
// The returned slice is only valid until this node's next Step (or
// StepOr/StepMax): it aliases a per-node buffer that the next round
// overwrites in place, which is what keeps steady-state rounds
// allocation-free. Copy entries that must outlive the round.
func (nd *Node) Step() []Incoming {
	nd.wk.parked++
	nd.park()
	return nd.collect()
}

// StepOr ends the round like Step and additionally aggregates a global OR
// over every running node's submitted value — the convergence oracle. It
// returns the delivered messages and the OR. Counted in Stats.OracleCalls.
func (nd *Node) StepOr(local bool) ([]Incoming, bool) {
	w := nd.wk
	w.parked++
	w.orCnt++
	w.or = w.or || local
	nd.park()
	return nd.collect(), nd.eng.orGlobal
}

// StepMax is StepOr with a global max over float64 values (identity -Inf).
func (nd *Node) StepMax(local float64) ([]Incoming, float64) {
	w := nd.wk
	w.parked++
	w.maxCnt++
	if local > w.max {
		w.max = local
	}
	nd.park()
	return nd.collect(), nd.eng.maxGlobal
}

// park suspends the node program until the engine finishes the round. The
// suspension is a coroutine switch back into the owning worker.
func (nd *Node) park() {
	e := nd.eng
	if e.coYield == nil || e.coYield[nd.id] == nil {
		panic("dist: blocking Step primitives require the coroutine backend; a RoundProgram must return from OnRound instead")
	}
	e.coYield[nd.id](struct{}{})
	if nd.eng.aborting {
		// The engine cancelled the run; unwind the program (recovered
		// and swallowed by runProgram).
		panic(abortPanic{})
	}
	if cr := nd.eng.crashed; cr != nil && cr[nd.id] {
		// killNode resumed this program exactly once so it unwinds here;
		// the node is permanently silent from this boundary on.
		panic(abortPanic{})
	}
}

// runProgram is the coroutine body. It recovers every panic on the
// coroutine side — a real panic would otherwise crash the process from a
// bare coroutine, and unwinding across a stack switch is not an option —
// and hands the value to the engine in memory. It also self-reports
// completion, so the worker's resume loop has nothing to check.
func (nd *Node) runProgram(program func(*Node)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPanic); !ok {
				nd.wk.notePanic(int(nd.id), r)
			}
		}
		e := nd.eng
		e.state[nd.id] |= stDone
		w := nd.wk
		w.done++
		if e.staged {
			// The node's final segment may have sent; its out-slots go
			// stale once delivered, and nobody will overwrite or clear
			// them again. Hand them to the worker's wash schedule.
			w.washNew = append(w.washNew, nd.id)
		}
	}()
	nd.eng.state[nd.id] |= stStarted
	program(nd)
}

// collect gathers this node's inbox for the round, per the engine's
// delivery mode. Scatter mode reads the node's own contiguous range
// cur[base, base+deg), clearing each slot behind the pack —
// receiver-side hygiene, and at typical degrees the inline slot stores
// beat a bulk clear() call. Staged mode reads each port's message from
// the *neighbor's* out-slot for the reverse arc, cur[dest[base+p]], and
// clears nothing: the sender's own pre-segment clear and the worker wash
// schedule keep staged buffers clean.
func (nd *Node) collect() []Incoming {
	e := nd.eng
	lo, hi := int(nd.base), int(nd.base)+int(nd.deg)
	in := e.inSlab[lo:hi]
	k := 0
	if e.staged {
		cur := e.cur
		for p, d := range e.dest[lo:hi] {
			if m := cur[d]; m != nil {
				in[k] = Incoming{Port: p, Msg: m}
				k++
			}
		}
		return in[:k]
	}
	cur := e.cur[lo:hi]
	for p := range cur {
		if m := cur[p]; m != nil {
			cur[p] = nil
			in[k] = Incoming{Port: p, Msg: m}
			k++
		}
	}
	return in[:k]
}

// clearOut zeroes this node's out-slot range in the back buffer — the
// staged-mode per-segment reset that replaces receiver-side clearing.
// Bulk clear() takes the write-barrier path once per range instead of
// once per slot.
func (nd *Node) clearOut() {
	e := nd.eng
	clear(e.nxt[nd.base : nd.base+nd.deg])
}

// gather is staged-mode collect for the flat backend's per-chunk
// delivery pass: the same pack of cur[dest[base:base+deg]] into the
// node's inSlab range, but with the count parked in inCnt instead of
// returning a slice, so the worker can run every gather of its chunk
// back-to-back — the random reads of consecutive nodes then overlap in
// the memory pipeline instead of serializing behind each OnRound (see
// worker.deliver).
func (nd *Node) gather() {
	e := nd.eng
	lo, hi := int(nd.base), int(nd.base)+int(nd.deg)
	in := e.inSlab[lo:hi]
	cur := e.cur
	k := 0
	for p, d := range e.dest[lo:hi] {
		if m := cur[d]; m != nil {
			in[k] = Incoming{Port: p, Msg: m}
			k++
		}
	}
	e.inCnt[nd.id] = int32(k)
}

// buildDest derives the one table the graph's own CSR arrays don't
// already provide: dest[a] = off(nbr[a]) + rev[a], the out-slot of arc
// a's reverse arc. It is its own inverse, which is what lets Send stage
// into sender-local slots and collect gather through the same table.
func buildDest(g *graph.Graph) []int32 {
	off, nbr, _, rev := g.CSR()
	dest := make([]int32, len(nbr))
	for a := range dest {
		dest[a] = off[nbr[a]] + rev[a]
	}
	return dest
}

// tableCacheSize bounds the dest-table cache: enough for the handful of
// graphs a benchmark or experiment loop alternates between, small enough
// that retired entries don't accumulate.
const tableCacheSize = 4

var tableCache struct {
	sync.Mutex
	entries [tableCacheSize]struct {
		g    weak.Pointer[graph.Graph]
		dest []int32
	}
	clock int
}

// destFor returns (building if needed) the cached dest table of g. Keys
// are weak pointers: the cache never keeps an abandoned graph alive, and
// a slot whose graph was collected is reused first.
func destFor(g *graph.Graph) []int32 {
	tableCache.Lock()
	free := -1
	for i := range tableCache.entries {
		e := &tableCache.entries[i]
		if e.dest == nil {
			if free == -1 {
				free = i
			}
			continue
		}
		switch e.g.Value() {
		case g:
			dest := e.dest
			tableCache.Unlock()
			return dest
		case nil: // graph collected: slot reusable
			e.dest = nil
			if free == -1 {
				free = i
			}
		}
	}
	tableCache.Unlock()
	dest := buildDest(g)
	tableCache.Lock()
	i := free
	if i == -1 {
		i = tableCache.clock
		tableCache.clock = (i + 1) % tableCacheSize
	}
	tableCache.entries[i].g = weak.Make(g)
	tableCache.entries[i].dest = dest
	tableCache.Unlock()
	return dest
}

// engine is the per-Run state shared by all nodes and workers.
type engine struct {
	g   *graph.Graph
	cfg Config
	n   int

	// Flat port geometry: nbr and eid alias the graph's own CSR arrays;
	// dest (cached per graph) maps arc a = off(v)+p to the receiver-side
	// mailbox slot it delivers into.
	nbr, eid []int32
	dest     []int32

	// Mutable topology overlay (see mutable.go), allocated lazily by the
	// Runner mutation API and persistent across Runner resets. liveEdge
	// masks the arc set (nil ⇒ every edge live; sends on dead edges are
	// dropped); weights overrides the graph's edge weights (nil ⇒ read
	// the graph).
	liveEdge []bool
	weights  []float64
	// liveCount is the number of live edges under the mask; meaningful
	// only while liveEdge != nil (no mask ⇒ every edge live).
	liveCount int

	// Double-buffered mailboxes, one slot per directed arc; the barrier
	// swaps the buffers. Slot indexing depends on staged (set once from
	// the worker count):
	//
	//   - Scatter mode (one worker): sends write the receiver-side slot
	//     nxt[dest[a]] and a node's inbox is its own contiguous range
	//     cur[base, base+deg), read and cleared in one sequential pass by
	//     collect. With a single worker no two writers can contend, so
	//     the store scatter — whose misses the store buffer absorbs — is
	//     the fastest delivery on one core.
	//   - Staged mode (multiple workers): sends land in the sender's own
	//     out-slot nxt[a] — a chunk's round writes only its own arc rows,
	//     one sequential pass, so workers never write another chunk's
	//     cache lines — and receivers gather cur[dest[a]] in the chunk's
	//     delivery pass. Each live node bulk-clears its own nxt range
	//     before every segment; ranges of nodes that stop clearing (done
	//     or crashed) are scrubbed by their worker's wash schedule.
	//
	// dest is an involution (dest[dest[a]] == a), which is what lets both
	// modes share one table, and the two modes deliver bit-identical
	// inboxes — enforced across worker counts by every differential suite.
	cur, nxt []Message
	staged   bool
	// inSlab backs every node's Step return slice, partitioned by base.
	inSlab []Incoming
	// inCnt[v] is the number of inSlab entries node v's last delivery
	// pass packed (flat backend; see worker.deliver).
	inCnt []int32

	nodes []Node
	state []uint8        // per-node stStarted/stDone bits, indexed by id (SoA: the sweeps scan bytes, not Node structs)
	rnds  []rng.Rand     // per-node streams, indexed by id
	coros []*pooledCoro  // adopted coroutines of the current run (cold, coroutine backend)
	progs []RoundProgram // per-node state machines (flat backend; nil ⇒ coroutine)

	// Coroutine handle slabs, indexed by id (coroutine backend only,
	// allocated on first launch): coNext resumes a node's program, coYield
	// parks it. Slab residence keeps Node itself read-only geometry.
	coNext  []func() (struct{}, bool)
	coYield []func(struct{}) bool

	// progSlab backs progs across a Runner's flat runs (see runner.go)
	// and one-shot RunFlat calls (sized from the pooled bundle).
	progSlab []RoundProgram

	// slabs is the pooled allocation bundle the slices above were sized
	// from; close() zeroes and returns it (see slabs.go).
	slabs *engineSlabs

	// Active-set execution state (see active.go). active is the current
	// restriction (nil ⇒ every node); actSlab retains the allocation
	// across ClearActive cycles. planSweep derives the per-run plan:
	// sweep form, the sorted id list the sparse sweep walks, and the
	// run's reporter (lowest active id; -1 on an empty set). prevAll /
	// prevDirty remember which nodes the previous Runner run stepped, so
	// reset clears only the mailbox slots that run could have written.
	active       *activeSet
	actSlab      *activeSet
	sweep        uint8
	activeSorted []int32
	reporter     int32
	prevAll      bool
	prevDirty    []int32

	// Fault injection state (see fault.go). faults is the installed plan
	// (nil ⇒ fault-free); faultIdx is the next unfired event; roundIdx
	// counts executed sweeps so events address round boundaries. crashed
	// marks permanently silenced nodes (nil ⇒ none; crashSlab retains the
	// allocation across Runner resets, like actSlab); crashedList drives
	// the O(crashes) reset that keeps a faulted Runner slab reusable.
	faults      *FaultPlan
	faultIdx    int
	roundIdx    int
	crashed     []bool
	crashSlab   []bool
	crashedList []int32

	// aborting makes every subsequent park unwind its program; set (only)
	// before the abortLive sweep.
	aborting bool

	orGlobal  bool
	maxGlobal float64

	workers  []worker
	dispatch []chan struct{}
	wg       sync.WaitGroup

	stats Stats
}

// worker owns the contiguous node chunk [lo, hi): it resumes the chunk's
// node programs one coroutine switch at a time, while the nodes themselves
// fold the chunk-local part of every reduction (traffic counters, global
// OR/max, park/done counts) into the worker's fields — race-free because
// the worker is suspended whenever one of its nodes runs.
type worker struct {
	e      *engine
	lo, hi int32

	// actLo/actHi bound this chunk's slice of engine.activeSorted when
	// the run sweeps in sparse form (set by planSweep, unused otherwise).
	actLo, actHi int

	// Round aggregates, reset at the start of runRound.
	parked     int
	done       int
	orCnt      int
	maxCnt     int
	or         bool
	max        float64
	msgs       int64
	bits       int64
	suppressed int64
	maxBits    int32

	panicID  int // lowest node id that panicked this run, -1 if none
	panicVal any

	prefetch int32 // sink for the sweep's next-node warmup load

	// Wash schedule for stale out-slots (see wash): nodes of this chunk
	// that stopped clearing their own nxt range mid-run — done programs
	// and crashed nodes. washNew collects this round's additions; each
	// entry is scrubbed at the start of the next two sweeps (once per
	// buffer of the double buffer), then dropped.
	washOld, washNew []int32

	// Trailing cache-line pad: adjacent workers in the engine's []worker
	// slab must not share a line, or the per-send counter writes above
	// (msgs/bits/maxBits, bumped on every Send of the chunk) would
	// false-share and serialize multicore sweeps.
	_ [64]byte
}

// wash scrubs the back-buffer out-slot ranges of the chunk's recently
// finished senders. A node that goes done (or is crashed) during sweep r
// stops running clearOut, but its final sends sit in one buffer and its
// round r−1 sends in the other — both turn stale only after delivery, so
// the node is washed at the start of sweeps r+1 and r+2 (hitting each
// buffer exactly once, always post-delivery, never touching cur) and then
// forgotten. All writes stay inside the chunk's own arc ranges.
func (w *worker) wash() {
	nodes := w.e.nodes
	nxt := w.e.nxt
	for _, v := range w.washOld {
		nd := &nodes[v]
		clear(nxt[nd.base : nd.base+nd.deg])
	}
	for _, v := range w.washNew {
		nd := &nodes[v]
		clear(nxt[nd.base : nd.base+nd.deg])
	}
	w.washOld, w.washNew = w.washNew, w.washOld[:0]
}

func (w *worker) notePanic(id int, v any) {
	if w.panicID == -1 || id < w.panicID {
		w.panicID, w.panicVal = id, v
	}
}

// runRound advances every live node of the chunk by one round, on whichever
// backend the engine was launched with.
func (w *worker) runRound() {
	w.parked, w.done, w.orCnt, w.maxCnt = 0, 0, 0, 0
	w.or, w.max = false, math.Inf(-1)
	w.msgs, w.bits, w.suppressed, w.maxBits = 0, 0, 0, 0
	if len(w.washOld)+len(w.washNew) != 0 {
		w.wash()
	}
	if w.e.progs != nil {
		w.flatSweep()
		return
	}
	w.coroSweep()
}

// coroSweep resumes every live node program of the chunk once. All
// bookkeeping is node-side; the sweep itself is the staged-mode
// pre-segment out-slot clear plus the coroutine switch. Under an active
// set only active nodes own coroutines, so the sweep walks the sparse id
// slice or the chunk range under the bitmap.
func (w *worker) coroSweep() {
	e := w.e
	nodes := e.nodes
	state := e.state
	next := e.coNext
	staged := e.staged
	switch e.sweep {
	case sweepList:
		act := e.activeSorted[w.actLo:w.actHi]
		for j, i := range act {
			if j+1 < len(act) {
				w.prefetch = nodes[act[j+1]].base
			}
			s := state[i]
			if s&stDone != 0 {
				continue
			}
			if staged && s&stStarted != 0 {
				nodes[i].clearOut()
			}
			next[i]()
		}
	case sweepMask:
		mask := e.active.mask
		for i := w.lo; i < w.hi; i++ {
			if !mask[i] {
				continue
			}
			s := state[i]
			if s&stDone != 0 {
				continue
			}
			if staged && s&stStarted != 0 {
				nodes[i].clearOut()
			}
			next[i]()
		}
	default:
		for i := w.lo; i < w.hi; i++ {
			if i+1 < w.hi {
				// Touch the next node's line so it loads while this node's
				// program runs; the sweep is latency-bound on cold per-node
				// state. The store keeps the load from being dead-coded.
				w.prefetch = nodes[i+1].base
			}
			s := state[i]
			if s&stDone != 0 {
				continue
			}
			if staged && s&stStarted != 0 {
				nodes[i].clearOut()
			}
			next[i]() // coroutine switch into the node program
		}
	}
}

// Run simulates program on every node of g in synchronous rounds and
// returns the aggregate cost. It returns once every node program has; a
// panic inside any node program aborts the run and re-panics with the
// same value in the caller's goroutine. Run always executes on the
// coroutine backend (a blocking program needs a suspendable stack); see
// RunFlat for the stack-switch-free alternative.
func Run(g *graph.Graph, cfg Config, program func(*Node)) *Stats {
	tel, tstart := telStart()
	var st Stats
	completed := false
	defer func() { tel.record(tstart, &st, completed) }()
	e := newEngine(g, cfg)
	if e.n != 0 {
		e.launch(program)
		defer e.close()
		e.loop()
	}
	// Return a copy: callers routinely retain the Stats, and a pointer
	// into the engine would pin its O(n+m) slabs for that lifetime.
	st = e.stats
	completed = true
	return &st
}

// workPerWorker is the input size, in nodes plus directed arcs, each
// chunk worker must own before another worker pays for itself. Every
// worker beyond the first costs a dispatch round-trip per round and
// switches delivery to the staged mode with its separate gather pass;
// below the crossover that overhead exceeds the round's work. The value
// comes from the workers × topology grid and the k=3 bipartite pipeline
// at 1 vs 2 workers on 2 cores (DESIGN.md §1, "Worker scaling"): a second
// worker loses on the 4,096-node 4-regular grid point (20,480
// nodes+arcs), breaks even on the pipeline at 2,048 nodes per side (about
// 20k) and wins from 8,192 per side (about 82k) on.
const workPerWorker = 32768

// defaultWorkers is the worker count of a Config with Workers == 0 on a
// graph of n nodes and arcs directed arcs, given procs usable cores:
// (n+arcs)/workPerWorker clamped to [1, procs], and never more than n.
func defaultWorkers(n, arcs, procs int) int {
	return min(max((n+arcs)/workPerWorker, 1), procs, n)
}

// chunkAlign is the worker-chunk boundary granularity in nodes: 64 nodes
// of the one-byte state slab span exactly one cache line, so aligned
// chunks write disjoint lines.
const chunkAlign = 64

func newEngine(g *graph.Graph, cfg Config) *engine {
	n := g.N()
	arcs := 2 * g.M()
	_, nbr, eid, _ := g.CSR()
	e := &engine{
		g:    g,
		cfg:  cfg,
		n:    n,
		nbr:  nbr,
		eid:  eid,
		dest: destFor(g),
	}
	e.takeSlabs(n, arcs)
	base := int32(0)
	for v := 0; v < n; v++ {
		nd := &e.nodes[v]
		nd.id, nd.base = int32(v), base
		nd.deg = int32(g.Deg(v))
		nd.eng = e
		e.rnds[v].Seed(rng.ForkSeed(cfg.Seed, uint64(v)))
		base += nd.deg
	}

	nw := cfg.Workers
	if nw <= 0 {
		nw = defaultWorkers(n, arcs, runtime.GOMAXPROCS(0))
	}
	if nw > n {
		nw = n
	}
	// Delivery mode (see the mailbox comment above): a single worker runs
	// the receiver-indexed scatter — fastest on one core, and contention
	// is impossible — while concurrent workers stage sends in their own
	// chunk rows so no worker ever writes another chunk's cache lines.
	// Under the default sizing the mode therefore follows the input size:
	// small graphs scatter, graphs past the crossover stage.
	e.staged = nw > 1
	e.workers = make([]worker, nw)
	lo := int32(0)
	for i := range e.workers {
		hi := int32(n)
		if i < nw-1 {
			// Even split, rounded up to a chunkAlign-node multiple: the
			// state-slab bytes (and every 64-byte-multiple per-node slab)
			// of different chunks then live on disjoint cache lines, so
			// concurrent sweeps never false-share per-node state.
			hi = (int32((i+1)*n/nw) + chunkAlign - 1) &^ (chunkAlign - 1)
			if hi > int32(n) {
				hi = int32(n)
			}
			if hi < lo {
				hi = lo
			}
		}
		w := &e.workers[i]
		*w = worker{
			e:       e,
			lo:      lo,
			hi:      hi,
			panicID: -1,
		}
		for v := w.lo; v < w.hi; v++ {
			e.nodes[v].wk = w
		}
		lo = hi
	}
	if nw > 1 {
		e.dispatch = make([]chan struct{}, nw)
		for i := range e.dispatch {
			e.dispatch[i] = make(chan struct{}, 1)
			go func(w *worker, ch chan struct{}) {
				for range ch {
					w.runRound()
					e.wg.Done()
				}
			}(&e.workers[i], e.dispatch[i])
		}
	}
	if cfg.ActiveSet != nil && n > 0 {
		e.installActive(cfg.ActiveSet)
	}
	if cfg.Faults != nil {
		cfg.Faults.validateFor(n, g.M())
		e.faults = cfg.Faults
	}
	e.planSweep()
	return e
}

func (e *engine) loop() {
	live := e.activeCount()
	for live > 0 {
		if e.faults != nil {
			live -= e.applyFaults()
			if live <= 0 {
				break
			}
		}
		e.runRound()
		e.roundIdx++
		agg := e.combine()
		if agg.panicID != -1 {
			e.abortLive()
			panic(agg.panicVal)
		}
		live -= agg.done
		e.stats.NodeRounds += int64(agg.parked) + int64(agg.done)
		e.stats.Messages += agg.msgs
		e.stats.Bits += agg.bits
		e.stats.SuppressedMessages += agg.suppressed
		if agg.parked == 0 {
			// Final segments only: every remaining program returned
			// without another barrier, so no round is charged.
			continue
		}
		if (agg.orCnt != 0 || agg.maxCnt != 0) &&
			(agg.orCnt != agg.parked || agg.maxCnt != 0) &&
			(agg.maxCnt != agg.parked || agg.orCnt != 0) {
			e.abortLive()
			panic("dist: protocol desync: nodes parked on different Step primitives in the same round")
		}
		e.stats.Rounds++
		e.stats.roundMaxBits = append(e.stats.roundMaxBits, agg.maxBits)
		if int(agg.maxBits) > e.stats.MaxMessageBits {
			e.stats.MaxMessageBits = int(agg.maxBits)
		}
		oracle := true
		switch {
		case agg.orCnt == agg.parked && agg.orCnt > 0:
			e.orGlobal = agg.or
		case agg.maxCnt == agg.parked && agg.maxCnt > 0:
			e.maxGlobal = agg.max
		default:
			oracle = false
		}
		if oracle {
			e.stats.OracleCalls += int64(agg.parked)
		}
		if e.cfg.Profile {
			e.stats.Profile = append(e.stats.Profile, RoundProfile{
				Messages: agg.msgs, Bits: agg.bits, MaxBits: int(agg.maxBits), Oracle: oracle,
			})
		}
		e.cur, e.nxt = e.nxt, e.cur
		if e.cfg.MaxRounds > 0 && e.stats.Rounds > e.cfg.MaxRounds && live > 0 {
			e.abortLive()
			panic(fmt.Sprintf("dist: run exceeded Config.MaxRounds=%d with %d nodes still running",
				e.cfg.MaxRounds, live))
		}
	}
}

func (e *engine) runRound() {
	if e.dispatch == nil {
		e.workers[0].runRound()
		return
	}
	e.wg.Add(len(e.dispatch))
	for _, ch := range e.dispatch {
		ch <- struct{}{}
	}
	e.wg.Wait()
}

// combine folds the per-worker chunk aggregates of the round just run.
func (e *engine) combine() worker {
	if len(e.workers) == 1 {
		return e.workers[0]
	}
	agg := worker{max: math.Inf(-1), panicID: -1}
	for i := range e.workers {
		w := &e.workers[i]
		agg.parked += w.parked
		agg.done += w.done
		agg.orCnt += w.orCnt
		agg.maxCnt += w.maxCnt
		agg.or = agg.or || w.or
		if w.max > agg.max {
			agg.max = w.max
		}
		agg.msgs += w.msgs
		agg.bits += w.bits
		agg.suppressed += w.suppressed
		if w.maxBits > agg.maxBits {
			agg.maxBits = w.maxBits
		}
		if w.panicID != -1 {
			agg.notePanic(w.panicID, w.panicVal)
		}
	}
	return agg
}

// abortLive cancels every still-running node program of the current run
// (only the run's active nodes ever started one). On the coroutine
// backend that means unwinding: with aborting set, each resumed park panics
// an abortPanic, which runProgram recovers, and the coroutine drops back to
// its idle loop — afterwards every coroutine of the run is idle and
// poolable again. A node that never entered its program body (a fault
// abort before the first round) is only marked done: its coroutine is
// already at the dispatch loop's idle point, and resuming it would
// instead START the program and leave it suspended at its first park —
// a mid-program coroutine that must never reach the pool, where a later
// run would rebind it and resume the stale program against reset engine
// state. On the flat backend there is no suspended stack to unwind;
// marking the nodes done is the whole job.
func (e *engine) abortLive() {
	e.aborting = true
	state := e.state
	if e.progs != nil || e.coNext == nil {
		e.forEachActive(func(nd *Node) { state[nd.id] |= stDone })
		return
	}
	e.forEachActive(func(nd *Node) {
		if s := state[nd.id]; s&stDone == 0 {
			state[nd.id] = s | stDone
			if s&stStarted != 0 {
				e.coNext[nd.id]()
			}
		}
	})
}

// close cancels any remaining programs, returns the run's coroutines to
// the pool (coroutine backend only), releases the workers, and recycles
// the engine's slab bundle (see slabs.go).
func (e *engine) close() {
	e.abortLive()
	releaseCoros(e.coros)
	for _, ch := range e.dispatch {
		close(ch)
	}
	e.putSlabs()
}

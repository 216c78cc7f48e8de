// Package dist is the round-synchronous message-passing engine underneath
// every distributed algorithm in this module. A simulation instantiates
// one logical processor per graph node, runs a program on each of them in
// lockstep, and returns the aggregate execution cost as a *Stats. There
// are two program forms, sharing one substrate and bit-identical for
// equivalent programs:
//
//   - Run(g, cfg, program) executes a blocking program func(*Node) on
//     coroutines: ordinary sequential code suspended at each round
//     barrier.
//   - RunFlat(g, cfg, factory) executes a RoundProgram state machine: an
//     OnRound(nd, inbox) step function the workers call directly in a
//     tight loop, with zero stack switches.
//
// Every algorithm package runs its product entry points through RunFlat;
// their blocking forms are unexported references pinned bit-identical to
// the flat forms by the packages' TestFlat* suites.
//
// # Programming model (blocking form)
//
// A node program is ordinary sequential Go code. It addresses its
// neighbors only through local port numbers 0..Deg()-1 (the standard
// anonymous-network convention; the graph package precomputes the port
// tables). The primitives are:
//
//   - Send(port, msg) / SendAll(msg): buffer a message for delivery at the
//     end of the current round. At most one message per (sender, port) per
//     round is retained — sending twice on a port overwrites, as a real
//     link would if the protocol violated the one-message-per-round rule.
//   - Step(): finish the round. Every node's round r sends become visible
//     to receivers when their Step() of round r returns, as a slice of
//     Incoming{Port, Msg} ordered by port. The slice is valid only until
//     the node's next Step — it is overwritten in place each round.
//   - StepOr(b) / StepMax(x): a round that additionally computes a global
//     OR / max over the values submitted by all still-running nodes — the
//     convergence oracle. Each use costs one round and is tallied per node
//     in Stats.OracleCalls (a real network would spend Θ(diameter) rounds
//     per call; see DESIGN.md §2).
//
// All nodes must call the Step variants in lockstep: a round in which some
// nodes call Step and others StepOr/StepMax is a protocol desync and makes
// the engine panic rather than silently misaggregate. A node may return at
// any time; messages it sent in its final segment are still delivered, and
// the simulation continues until every node program has returned.
//
// # Programming model (flat form)
//
// A RoundProgram is the same protocol with the call stack turned inside
// out: per-node state lives in a struct, and the engine calls the program
// once per round instead of the program blocking once per round. Init(nd)
// is everything a blocking program does before its first Step; each
// OnRound(nd, in) call is one "process inbox, compute, send" segment
// between two barriers, returning true to continue into another round and
// false to finish. Oracle rounds split StepOr/StepMax into halves:
// SubmitOr/SubmitMax before returning marks the ending round, and
// GlobalOr/GlobalMax read the aggregate at the start of the next OnRound.
// Send/SendAll and all geometry accessors work identically; the blocking
// Step primitives panic (there is no stack to park).
//
// Israeli–Itai, Luby's MIS, the LPR weight classes, LocalGreedy and the
// whole internal/core pipeline (Algorithms 1-5) run as RoundProgram
// ports (bit-identical to their blocking forms, roughly 3-6x the
// node-rounds/s; see DESIGN.md §1 for measurements). Protocols that
// nest sub-protocols do not need a blocking stack for it: the Machine
// interface plus the Seq combinator (machine.go) compose state-machine
// fragments — a counting BFS feeding an MIS token walk feeding a commit
// broadcast, repeated per phase — into one RoundProgram, segment-aligned
// with the equivalent blocking call tree. Keep the blocking form as the
// readable reference implementation and for programs written once and
// run rarely — it is the more natural notation, and still fast.
//
// For many short runs on one graph (seed sweeps, per-slot schedules),
// Runner (runner.go) amortizes engine setup — slabs, dest tables, the
// worker pool — across runs, bit-identical to fresh Run/RunFlat calls.
// A Runner's topology is also mutable between runs (mutable.go): an
// edge activation mask (dead edges drop all traffic in the send path,
// so any protocol runs as if on the live subgraph) and a weight overlay
// turn the fixed CSR slab into a mutable arc set — the substrate of
// internal/dynamic's incremental matching maintainer.
//
// A run may further be restricted to a node subset (active.go):
// Config.ActiveSet for one-shot runs, SetActive / ActivateNode /
// ExpandByHops / ClearActive on a Runner. Inactive nodes execute no
// program segments, send and receive nothing, and their RNG streams do
// not advance, so per-round sweep cost — and, on a Runner, per-run reset
// cost — is O(active), not O(n). A run over an active set is
// bit-identical to a full-sweep run of a protocol whose excluded nodes
// are silent observers; only Stats.NodeRounds and Stats.OracleCalls
// (honest work accounting) differ. This is what makes regional repair
// on a large slab cost ∝ region (DESIGN.md §1 and §6).
//
// # Execution model
//
// The engine is built for throughput (BenchmarkEngineRound and
// BenchmarkEngineRoundFlat track the two entry points in node-rounds/s).
// The substrate is shared:
//
//   - Mailboxes are flat and CSR-indexed: one slot per directed arc,
//     double-buffered. Send writes straight into the receiver's slot of
//     the back buffer (each arc has exactly one writer, so there is no
//     contention and no delivery pass); the barrier flips the buffers.
//     Steady-state rounds allocate nothing, and the port tables are
//     cached per graph across runs.
//   - A worker pool owns contiguous node chunks; workers advance their
//     nodes one at a time while the nodes fold the reductions (global
//     OR/max, traffic accounting) into chunk-local accumulators, and the
//     engine combines the per-chunk partials at the barrier. By default
//     the engine sizes the pool from its input, one worker per
//     workPerWorker nodes plus directed arcs, clamped to [1, GOMAXPROCS]:
//     below the measured crossover a second worker's per-round dispatch
//     and staged delivery cost more than the round's work, so serving-
//     sized graphs run one inline worker and large solves scale with the
//     cores. Config.Workers overrides the choice.
//   - Every node draws randomness from its own deterministic stream,
//     forked from Config.Seed by node id (rng.ForkSeed). Together with
//     fixed mailbox slots and associative-commutative reductions this
//     makes runs bit-identical regardless of worker count, scheduling or
//     entry point.
//
// The entry points differ only in how a worker advances a node: Run
// resumes a parked goroutine-stack (iter.Pull, a runtime.coroswitch pair
// per node-round, pooled across runs), while RunFlat makes one interface
// call into the node's RoundProgram —
// which is why it clears the switch-pair ceiling described in DESIGN.md
// §1.
//
// See DESIGN.md §1 for measured round-rate numbers and the scaling model.
//
// # LOCAL vs CONGEST bit accounting
//
// The engine itself is model-agnostic: it delivers arbitrary Message
// values. The LOCAL/CONGEST distinction lives entirely in the accounting,
// following the convention of Lotker–Patt-Shamir–Pettie (and the message
// sizes stressed by Fischer's deterministic rounding and the
// communication-complexity lower bounds of Huang et al., see PAPERS.md):
// every Message declares its own width via Bits(), and the engine records
// the total (Stats.Bits), the per-round peak, and the overall peak
// (Stats.MaxMessageBits). A CONGEST algorithm is one whose MaxMessageBits
// stays O(log n) — asserted by tests, not assumed — while the generic
// LOCAL-model algorithm's neighborhoods show up as Θ(|V|+|E|)-bit
// messages. Stats.PipelinedRounds(c) converts a LOCAL execution into the
// round count it would cost if every message were pipelined in c-bit
// chunks (the Lemma 3.7 transformation); internal/core's strict mode
// executes that transformation for real and matches the estimate.
package dist

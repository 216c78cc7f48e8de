// Package core implements the four algorithms of Lotker, Patt-Shamir and
// Pettie, "Improved Distributed Approximate Matching" (SPAA 2008):
//
//   - GenericMCM — the paper's Algorithm 1/2 (§3.1, Theorem 3.1): a
//     (1−ε)-approximate maximum cardinality matching for general graphs
//     using LOCAL-model messages of up to O(|V|+|E|) size, built from
//     conflict graphs of augmenting paths and a distributed MIS over them.
//
//   - BipartiteMCM — Algorithm 3 (§3.2, Lemmas 3.6/3.7, Theorem 3.8,
//     Figure 1): a (1−1/k)-MCM for bipartite graphs with small messages,
//     via BFS path counting and a token-walk emulation of Luby's MIS.
//
//   - GeneralMCM — Algorithm 4 (§3.3, Theorem 3.11): the randomized
//     reduction from general to bipartite graphs by repeated red/blue
//     sampling.
//
//   - WeightedMWM — Algorithm 5 (§4, Theorem 4.5, Figure 2): the
//     (½−ε)-approximate maximum weight matching obtained by iterating a
//     δ-MWM black box (internal/lpr) on the wrap-gain weights w_M.
//
// All algorithms run as genuine per-node programs on the synchronous
// message-passing engine of internal/dist; every reported round, message
// and bit is actually exchanged.
//
// # Execution forms
//
// Every exported entry point runs the machine-composition ports in
// flat.go, flat_general.go, flat_weighted.go, flat_strict.go and
// flat_generic.go: dist.Machine fragments chained by dist.Seq, zero
// stack switches, 3-6x the node-rounds/s of blocking programs (see
// DESIGN.md §1 and BENCH_pr3.json). The blocking programs in
// bipartite.go, bipartite_strict.go, general.go, weighted.go, generic.go
// and repair.go are the readable reference notation, kept as unexported
// functions (bipartiteMCMCoroutine, bipartiteMCMStrictCoroutine,
// generalMCMCoroutine, weightedMWMCoroutine, genericMCMCoroutine,
// repairBipartiteCoroutine). The differential suites (flat_test.go,
// flat_strict_test.go, flat_generic_test.go, batch_test.go and
// repair_active_test.go) call them directly and pin matching, Stats and
// per-round profiles equal, so any change to one form must be mirrored
// in the other. CountPaths has only the blocking form.
package core

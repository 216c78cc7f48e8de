package dist

import (
	"runtime"
	"testing"
)

// TestDefaultWorkers pins the Workers == 0 sizing rule on the graphs the
// serving and solve paths actually build, at several core counts passed
// in explicitly so the verdict does not depend on the host. Sizes are
// nodes and directed arcs of the real slabs (BipartiteGnp, seed 88):
// every serving engine stays below the crossover and runs one worker; the
// solve graph scales with the cores.
func TestDefaultWorkers(t *testing.T) {
	procs := []int{1, 2, 8}
	cases := []struct {
		name    string
		n, arcs int
		want    []int // at each of procs
	}{
		{"churn slab 512+512", 1024, 4234, []int{1, 1, 1}},
		{"bulk slab 2048+2048", 4096, 16532, []int{1, 1, 1}},
		{"churn 4-shard sub-slab", 256, 280, []int{1, 1, 1}},
		{"bulk 4-shard sub-slab", 1024, 1078, []int{1, 1, 1}},
		{"grid G(n,m) 4096 deg 16", 4096, 65536, []int{1, 2, 2}},
		{"solve 65536+65536", 131072, 525082, []int{1, 2, 8}},
		{"two nodes, many parallel arcs", 2, 8 * workPerWorker, []int{1, 2, 2}},
		{"single node", 1, 0, []int{1, 1, 1}},
	}
	for _, c := range cases {
		for i, p := range procs {
			got := defaultWorkers(c.n, c.arcs, p)
			if got != c.want[i] {
				t.Errorf("%s at GOMAXPROCS=%d: %d workers, want %d", c.name, p, got, c.want[i])
			}
			if got < 1 || got > p || got > c.n {
				t.Errorf("%s at GOMAXPROCS=%d: %d workers outside [1, min(%d, %d)]", c.name, p, got, p, c.n)
			}
		}
	}
}

// TestDefaultRunnerSmallGraphScatters checks that a Runner left at the
// default on a serving-sized graph runs one inline worker with scatter
// delivery and starts no dispatch goroutines (newEngine spawns one per
// dispatch channel and nowhere else), however many cores there are, while
// an explicit Workers still forces the staged multi-worker path.
func TestDefaultRunnerSmallGraphScatters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	g := ring(1024)

	r := NewRunner(g, Config{})
	defer r.Close()
	if len(r.e.workers) != 1 || r.e.dispatch != nil || r.e.staged {
		t.Fatalf("default on n=1024: %d workers, %d dispatch goroutines, staged=%v; want 1, 0, false",
			len(r.e.workers), len(r.e.dispatch), r.e.staged)
	}

	forced := NewRunner(g, Config{Workers: 4})
	defer forced.Close()
	if len(forced.e.workers) != 4 || len(forced.e.dispatch) != 4 || !forced.e.staged {
		t.Fatalf("Workers: 4: %d workers, %d dispatch goroutines, staged=%v; want 4, 4, true",
			len(forced.e.workers), len(forced.e.dispatch), forced.e.staged)
	}
}

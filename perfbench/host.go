package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// maxSteal is the share of the host's CPU time the hypervisor may take
// during a measurement window before the window is measured again. On
// the 2-vCPU VMs this benchmark was built on, quiet windows lose under
// 4%, while stretches of one to three minutes lose 10–50% and slow
// every metric by up to 3×.
const maxSteal = 0.05

// cpuTicks is the host's cumulative CPU time from /proc/stat: ticks the
// guest spent busy, and ticks the hypervisor gave its virtual CPUs to
// someone else (steal).
type cpuTicks struct{ busy, steal uint64 }

func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := func(i int) uint64 { n, _ := strconv.ParseUint(f[i], 10, 64); return n }
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}

// stealShare is the share of the CPU time the host wanted between a and
// b that the hypervisor took away: 0 on a machine of its own.
func stealShare(a, b cpuTicks) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.busy-a.busy+b.steal-a.steal))
}

// quiet measures windows on a host that may lend its CPUs to other
// tenants. A window that lost more than maxSteal of the CPU time is
// measured again while the run's extra budget lasts; once it is spent,
// windows are kept as measured.
type quiet struct {
	budget    time.Duration
	discarded int
}

// keep reports whether a measurement that took d and saw steal share
// steal stands, and charges a discarded one to the budget.
func (q *quiet) keep(steal float64, d time.Duration) bool {
	if steal <= maxSteal || q.budget <= 0 {
		return true
	}
	q.budget -= d
	q.discarded++
	fmt.Printf("discarded a %v measurement: the hypervisor took %.1f%% of the CPU\n", d.Round(time.Millisecond), 100*steal)
	return false
}

// windows returns n windows of measure that keep accepts.
func (q *quiet) windows(n int, measure func() window) []window {
	var kept []window
	for len(kept) < n {
		w := measure()
		if q.keep(w.steal, w.wall) {
			kept = append(kept, w)
		}
	}
	return kept
}

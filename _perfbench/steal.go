package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor takes CPU time from the
// guest in slices of several milliseconds ("steal"). On the 2-CPU VM the
// benchmark was tuned on, four runs of the same sim-faulty input had
// 4 %, 4 %, 26 % and 27 % of their busy CPU time stolen, and took
// 10.99, 11.45, 15.60 and 15.11 s to run.
// Steal is the host's load, not the program's, so every timed interval
// is scaled by the share of busy CPU time that was not stolen while it
// ran. The share is machine-wide, which is the benchmark's own share on
// an otherwise idle guest. Where /proc/stat is absent the factor is 1.

// cpuTimes is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuTimes struct{ busy, steal int64 }

// readCPUTimes reads the aggregate "cpu" line: busy time is user, nice,
// system, irq, softirq and steal; idle and iowait are not busy.
func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTimes{}, false
		}
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}, true
}

// interval is a timed interval of wall time.
type interval struct {
	t0 time.Time
	c0 cpuTimes
	ok bool
}

func startInterval() interval {
	c, ok := readCPUTimes()
	return interval{t0: time.Now(), c0: c, ok: ok}
}

// stop returns the interval's wall seconds and the share of the busy CPU
// time in it that the hypervisor stole.
func (iv interval) stop() (wall, steal float64) {
	wall = time.Since(iv.t0).Seconds()
	c, ok := readCPUTimes()
	if !iv.ok || !ok || c.busy <= iv.c0.busy {
		return wall, 0
	}
	return wall, float64(c.steal-iv.c0.steal) / float64(c.busy-iv.c0.busy)
}

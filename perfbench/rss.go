package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// rssEvery is how often the resident-set sampler reads /proc.
const rssEvery = 10 * time.Millisecond

// rssSampler records the process's resident set size every rssEvery
// until stopped. The high-water mark (VmHWM) would be simpler, but it
// keeps the single worst GC overshoot of the run: on oracle-validate it
// moved between 16 and 28 MB across identical runs.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := residentMB(); err == nil {
				mb = append(mb, v)
			}
			select {
			case <-s.stop:
				s.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// p95 stops the sampler and returns the 95th percentile of its samples:
// the resident set the work held for all but its briefest peaks.
func (s *rssSampler) p95() (float64, error) {
	close(s.stop)
	mb := <-s.done
	if len(mb) == 0 {
		return 0, fmt.Errorf("no resident-set samples: /proc/self/statm unreadable")
	}
	v, _ := percentile(mb, 0.95)
	return v, nil
}

// residentMB reads the resident set size in MiB from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the record of the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	// StealFrac is the share of the machine's CPU time the hypervisor gave
	// to other guests while the run measured: on a shared host, what moves
	// the wall-clock figures between runs.
	StealFrac float64 `json:"steal_frac"`
}

func hostFacts(seed int64, steal float64) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Seed:       seed,
		StealFrac:  steal,
	}
}

// cpuTicks returns the machine's stolen and total CPU time so far, in clock
// ticks, from the first line of /proc/stat (zero where it is missing). The
// total is user through steal; the guest columns after steal are already
// counted in user and nice.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseFloat(v, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuNow returns the CPU time the process has used so far, user and system,
// on all its threads. Linux does not count time the hypervisor steals from
// a virtual CPU as the process's CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the process's resident set every rssEvery until
// stopped. The peak of one run (VmHWM) is a single extreme sample that
// depends on where a GC cycle happened to fall and varied by a third between
// runs; a high percentile of many samples is steady.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, ok := rssMB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// p95 stops the sampler and returns the 95th percentile of its samples.
func (s *rssSampler) p95() float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return 0
	}
	sort.Float64s(s.samples)
	return s.samples[(len(s.samples)*95)/100]
}

// rssMB reads the resident set from /proc/self/statm, in MB.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / 1e6, true
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint stored with every result, so numbers taken on
// different machines are never compared by accident.
type host struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	// The commit is stamped by the go tool when it builds inside a git
	// checkout; a bare source tree (the acceptance driver's) has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM") // "123456 kB"
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("peak rss: VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// usage is a snapshot of the process's cumulative CPU time and allocation
// counters; sub gives what was spent between two of them.
type usage struct {
	cpu     time.Duration
	allocB  uint64
	mallocs uint64
	gcPause time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.allocB, u.mallocs, u.gcPause = ms.TotalAlloc, ms.Mallocs, time.Duration(ms.PauseTotalNs)
	return u
}

func (u usage) sub(earlier usage) usage {
	return usage{
		cpu:     u.cpu - earlier.cpu,
		allocB:  u.allocB - earlier.allocB,
		mallocs: u.mallocs - earlier.mallocs,
		gcPause: u.gcPause - earlier.gcPause,
	}
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// stealTicks reads the cumulative steal time of all CPUs from /proc/stat, in
// clock ticks (1/100 s): time the hypervisor ran something else while this
// guest had work to do. 0 where the file has no such field.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

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

// host records what the numbers were measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers(), Shards: shards, GoVersion: runtime.Version(),
		CPU: "unknown", Commit: "unknown",
	}
	if v, err := procField("/proc/cpuinfo", "model name"); err == nil {
		h.CPU = v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var modified bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// procField returns the value of the first "key: value" line of a /proc
// file.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no %q line", path, key)
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS (VmHWM) accounting from the current resident set, so the next
// peakRSSMB reading covers only what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// span is an elapsed time read on two clocks: wall and process CPU.
type span struct{ wall, cpu time.Duration }

// stamp is a point on both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

func (s stamp) since() span { return span{time.Since(s.wall), cpuTime() - s.cpu} }

// cpuTime is the CPU time (user + system, all threads) the process has
// used so far. The kernel excludes time the hypervisor stole from a
// virtual CPU, which wall time on a shared host does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

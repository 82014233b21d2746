package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// Stamp records the environment a result was measured in, so results
// from different machines or builds are never compared by mistake.
type Stamp struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	CPUFlags   []string `json:"cpu_flags"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
}

// stampFor builds the environment stamp of a run.
func stampFor(cfg runConfig) Stamp {
	model, flags := cpuInfo()
	return Stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   model,
		CPUFlags:   flags,
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// stampedFlags are the CPU features the host matmul kernel dispatches
// on or could use.
var stampedFlags = []string{"avx2", "avx512f", "fma"}

// cpuInfo reads the CPU model and the stamped feature flags from
// /proc/cpuinfo ("unknown" and none where it is unavailable).
func cpuInfo() (string, []string) {
	model, flags := "unknown", []string{}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, flags
	}
	defer f.Close()
	var have map[string]bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() && (model == "unknown" || have == nil) {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			have = map[string]bool{}
			for _, fl := range strings.Fields(val) {
				have[fl] = true
			}
		}
	}
	for _, fl := range stampedFlags {
		if have[fl] {
			flags = append(flags, fl)
		}
	}
	return model, flags
}

// commit returns the VCS revision the benchmark binary was built from,
// with a "+dirty" suffix for a modified tree, or "unknown" when the
// build carried no VCS information (a checkout outside git).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in
// MiB, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

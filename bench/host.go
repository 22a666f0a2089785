package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo is the fingerprint every result file carries. Two result files
// are comparable only when every field but Commit agrees.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func fingerprint() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}

// sameHost reports whether two fingerprints describe the same machine and
// toolchain, and if not, the first field that differs.
func sameHost(a, b hostInfo) (bool, string) {
	switch {
	case a.CPUModel != b.CPUModel:
		return false, fmt.Sprintf("cpu_model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return false, fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return false, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return false, fmt.Sprintf("go_version %q vs %q", a.GoVersion, b.GoVersion)
	case a.GOOS != b.GOOS || a.GOARCH != b.GOARCH:
		return false, fmt.Sprintf("platform %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH)
	}
	return true, ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out revision, or "unknown" outside a git work
// tree (the acceptance driver runs the benchmark from a plain directory).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// workerCount is wn = min(nproc, 4): never more worker threads than CPUs
// (the committed BENCH_0006-0008 points ran 8 workers on 2 cores, which is
// why their w1/w4/w8 columns are indistinguishable).
func workerCount() (int, error) {
	wn := runtime.NumCPU()
	if wn > 4 {
		wn = 4
	}
	if g := runtime.GOMAXPROCS(0); g < wn {
		return 0, fmt.Errorf("GOMAXPROCS=%d is below the %d workers the benchmark starts; unset GOMAXPROCS or raise it", g, wn)
	}
	return wn, nil
}

package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envInfo is the host fingerprint stamped on every output, so a number is
// never read without the machine it was measured on.
type envInfo struct {
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs_generator"`
	DaemonGOMAXPROCS int     `json:"gomaxprocs_daemon"` // the daemon's build_workers, which defaults to its GOMAXPROCS
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	Kernel           string  `json:"kernel"`
	FsyncProbeUS     float64 `json:"store.fsync_probe_us"`
}

func fingerprint(root string) envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
		Kernel:     "unknown",
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

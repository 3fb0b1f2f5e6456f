package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the host and the code a result was measured
// on, so numbers from different hosts are never compared.
func fingerprint(w *workload) string {
	return fmt.Sprintf("cpu=%q numcpu=%d gomaxprocs=%d go=%s commit=%s run_workers=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), w.workers)
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

// commit is the VCS revision stamped into the binary. A checkout that is
// not a repository has none; the hash of its Go sources stands in.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "tree-" + sourceHash(".")
}

// sourceHash hashes the go.mod and .go files under root, skipping
// hidden directories such as the build output.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"widx/internal/mem"
)

// envStamp identifies the machine and the code a result was measured on.
// Host times compare only between runs with the same stamp.
type envStamp struct {
	GoVersion  string
	GOMAXPROCS int
	NumCPU     int
	CPU        string
	Commit     string
	// Cache sizes of mem.DefaultConfig(), the machine every workload
	// simulates.
	L1Bytes  int
	LLCBytes int
	TLB      int
}

func stampEnv(root string) envStamp {
	mc := mem.DefaultConfig()
	return envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     commit(root),
		L1Bytes:    mc.L1SizeBytes,
		LLCBytes:   mc.LLCSizeBytes,
		TLB:        mc.TLBEntries,
	}
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

// commit names the code under test: the git HEAD when the tree is a git
// checkout, otherwise a hash of every Go source and module file under root
// (build output excluded).
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return ref
		}
		return ref
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil)[:8])
}

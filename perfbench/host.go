package main

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo records the machine and code a result was measured on.
type hostInfo struct {
	NProc      int
	GoMaxProcs int
	CPU        string
	GoVersion  string
	// Source is a digest of the checkout's Go sources, which names the
	// measured code whether or not it is committed. Commit is the git
	// HEAD the checkout holds, or "none" outside a git repository.
	Source string
	Commit string
	// StateFS is the filesystem type holding the serving state
	// directories.
	StateFS string
}

func readHost(root, stateDir string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Source:     sourceDigest(root),
		Commit:     gitHead(root),
		StateFS:    fsType(stateDir),
	}
	return h
}

// gitHead reads the commit root/.git/HEAD points at, directly or through
// a loose or packed ref.
func gitHead(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
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

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// sourceDigest hashes every .go file and go.mod under root (path and
// content, in path order), skipping hidden directories and testdata.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stealMs returns the CPU time, summed over the machine's CPUs, that the
// hypervisor has kept this machine's runnable virtual CPUs waiting so
// far, in ms: the steal column of /proc/stat's "cpu" line, in ticks of
// 10 ms. It returns 0 where there is no such column.
func stealMs() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return 10 * ticks
}

// stealClock is a reading of the steal counter and the clock at the
// start of a measured interval.
type stealClock struct {
	at    time.Time
	steal float64
}

func startSteal() stealClock { return stealClock{time.Now(), stealMs()} }

// share returns the share of the machine's CPU time (wall time × CPUs)
// the hypervisor stole since c was read.
func (c stealClock) share() float64 {
	cpuMs := float64(runtime.NumCPU()) * ms(time.Since(c.at))
	if cpuMs <= 0 {
		return 0
	}
	return (stealMs() - c.steal) / cpuMs
}

// A measured interval is calm when at most calmShare of the machine's CPU
// time was stolen during it; a run reports the median over its calm
// intervals, or over the minCalm least-stolen ones when fewer are calm.
const (
	calmShare = 0.02
	minCalm   = 3
)

// calm returns the indices of a run's calm intervals, given the stolen
// share of each (stealClock.share). The shared host's noise comes in
// bursts, and an interval's timing follows the CPU time stolen in it: in
// one serve-mixed run, half-second windows with 20–35% of their CPU time
// stolen had read p50s of 0.36–2.7 ms, those with none about 0.09 ms. On
// a busy host the third of the windows with the least steal can still
// hold stolen ones, so the test is absolute: over ten runs of which four
// had more than 4 s stolen in all, the median over windows with at most
// 2% stolen spread 0.12 from run to run, over the least-stolen third
// 0.47, and over all windows 1.26. The choice reads only the steal
// counter, never the timings, so a change that slows every interval
// moves the result one for one. Where the machine reports no steal,
// every interval is calm.
func calm(share []float64) []int {
	var idx []int
	for i, s := range share {
		if s <= calmShare {
			idx = append(idx, i)
		}
	}
	if len(idx) >= minCalm || len(idx) == len(share) {
		return idx
	}
	order := make([]int, len(share))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(share[a], share[b]) })
	return order[:min(minCalm, len(order))]
}

// calmMedian is the median of xs over the calm intervals, given the
// stolen share of each.
func calmMedian(xs, share []float64) float64 {
	var c []float64
	for _, i := range calm(share) {
		c = append(c, xs[i])
	}
	return median(c)
}

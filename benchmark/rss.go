package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"github.com/optlab/opt/internal/diskio"
)

// procPath names a file of process pid under /proc (pid 0 = this process).
func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// peakRSSKiB reads VmHWM, the resident-set high-water mark, of process pid.
func peakRSSKiB(pid int) (int64, error) {
	f, err := diskio.OpenRaw(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }() // read-only handle
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", f.Name())
}

// resetPeakRSS restarts the high-water mark at the current resident size
// by writing "5" to clear_refs. Where the kernel or the sandbox refuses,
// the mark keeps covering the whole process lifetime — set-up included —
// and the caller reports that.
func resetPeakRSS(pid int) error {
	f, err := diskio.CreateRaw(procPath(pid, "clear_refs"))
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("5"))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// peakRSSMiB sums the high-water marks of pids in MiB.
func peakRSSMiB(pids []int) (float64, error) {
	var total int64
	for _, pid := range pids {
		kib, err := peakRSSKiB(pid)
		if err != nil {
			return 0, err
		}
		total += kib
	}
	return float64(total) / 1024, nil
}

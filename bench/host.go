package bench

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blockdag/internal/crypto"
)

// Fingerprint identifies the host a result was measured on. Results from
// different fingerprints are not comparable, and Compare refuses to.
type Fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

// HostFingerprint reads this host's.
func HostFingerprint() Fingerprint {
	fp := Fingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		var b strings.Builder
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		fp.Kernel = b.String()
	}
	return fp
}

// Calibration is two fixed loops timed on this host, so a slow or noisy
// machine shows in the document instead of reading as a regression.
type Calibration struct {
	SHA256MBs       float64 `json:"sha256_mb_s"`
	Ed25519VerifyUs float64 `json:"ed25519_verify_us"`
}

// Calibrate runs each loop for the given time.
func Calibrate(each time.Duration) Calibration {
	buf := make([]byte, 64<<10)
	var hashed int
	began := time.Now()
	for time.Since(began) < each {
		sha256.Sum256(buf)
		hashed += len(buf)
	}
	mbs := float64(hashed) / (1 << 20) / time.Since(began).Seconds()

	kp := crypto.DevKeyPair(0)
	msg := sha256.Sum256(buf)
	sig := ed25519.Sign(kp.Private, msg[:])
	var verified int
	began = time.Now()
	for time.Since(began) < each {
		ed25519.Verify(kp.Public, msg[:], sig)
		verified++
	}
	us := float64(time.Since(began)) / float64(time.Microsecond) / float64(verified)
	return Calibration{SHA256MBs: mbs, Ed25519VerifyUs: us}
}

// stolenTime is the CPU time the hypervisor has withheld from this machine
// since boot, summed over its processors: the steal column of /proc/stat,
// in the kernel's 10 ms ticks. 0 where there is no such file.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line)) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// Layers are the packages whose size the benchmark tracks (ROADMAP aim 2).
var Layers = []string{
	"gateway", "mempool", "node", "core", "gossip", "block", "crypto",
	"dag", "graph", "interpret", "store", "tcpnet", "syncsvc",
}

// countLines counts the lines of non-test Go files under dir.
func countLines(dir string) (int, error) {
	var lines int
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(data, []byte("\n"))
		return nil
	})
	return lines, err
}

// hostMetrics fills calib.* and loc.*: the host's calibration, and the
// program's size per layer and in total over internal/, cmd/ and
// examples/. A tree without the sources reports 0.
func hostMetrics(p Metrics, cal Calibration, repoRoot string) {
	p.set("calib.sha256_mb_s", cal.SHA256MBs, "MB/s")
	p.set("calib.ed25519_verify_us", cal.Ed25519VerifyUs, "us")
	for _, layer := range Layers {
		n, _ := countLines(filepath.Join(repoRoot, "internal", layer))
		p.set("loc."+layer, float64(n), "lines")
	}
	var total int
	for _, top := range []string{"internal", "cmd", "examples"} {
		n, _ := countLines(filepath.Join(repoRoot, top))
		total += n
	}
	p.set("loc.total", float64(total), "lines")
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel=%s", f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Kernel)
}

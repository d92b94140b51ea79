package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// host identifies the machine and toolchain a result was measured on, plus
// the run's own parameters. Results are comparable only between equal hosts.
type host struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// fingerprintPrefix starts the output line carrying the host record.
const fingerprintPrefix = "fingerprint "

func fingerprint() host {
	return host{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printFingerprint(w io.Writer, h host) error {
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", fingerprintPrefix, b)
	return err
}

// machine is the part of a host record two results must share to be
// compared: everything but the seed.
func (h host) machine() host {
	h.Seed = 0
	return h
}

// parseOutput reads a saved benchmark output: its fingerprint line and its
// final JSON result.
func parseOutput(b []byte) (host, *result, error) {
	var h host
	found := false
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, fingerprintPrefix) {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, fingerprintPrefix)), &h); err != nil {
				return h, nil, fmt.Errorf("fingerprint: %w", err)
			}
			found = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if !found {
		return h, nil, fmt.Errorf("no fingerprint line")
	}
	res := &result{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return h, nil, fmt.Errorf("result line: %w", err)
	}
	return h, res, nil
}

// compareFiles prints each metric's old and new value and their ratio. It
// refuses outputs measured on different hosts, toolchains or settings.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	var hosts [2]host
	var results [2]*result
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if hosts[i], results[i], err = parseOutput(b); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if hosts[0].machine() != hosts[1].machine() {
		return fmt.Errorf("refusing to compare different fingerprints:\n  old %+v\n  new %+v", hosts[0], hosts[1])
	}
	names := make([]string, 0, len(results[0].Metrics))
	for name := range results[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := results[0].Metrics[name]
		n, ok := results[1].Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14.6g %14s %s\n", name, o.Value, "missing", o.Unit)
			continue
		}
		ratio := "-"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%.3f", n.Value/o.Value)
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %8s %s\n", name, o.Value, n.Value, ratio, o.Unit)
	}
	return nil
}

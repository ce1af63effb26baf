package main

import (
	"strings"
	"testing"
)

// benchOutput is `go version` and `go test -bench . -benchmem` output as
// captured on a 2-vCPU linux/amd64 host, with a custom metric and a log
// line.
const benchOutput = `go version go1.24.0 linux/amd64
goos: linux
goarch: amd64
pkg: nda
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorThroughput-2   	       1	  51234567 ns/op	   1234567 sim-inst/s	       0 B/op	       0 allocs/op
    bench_test.go:42: a log line
BenchmarkAssembler-2             	       1	     84048 ns/op	    2976 B/op	      81 allocs/op
PASS
ok  	nda	1.234s
BenchmarkLoadHot 10 2000000 ns/op 1.00 p50-ms
`

func TestParseHostFingerprint(t *testing.T) {
	f, err := parse(strings.NewReader(benchOutput), 7, "n")
	if err != nil {
		t.Fatal(err)
	}
	if f.GOOS != "linux" || f.GOARCH != "amd64" || f.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("host = %q/%q/%q", f.GOOS, f.GOARCH, f.CPU)
	}
	if f.GOMAXPROCS != 2 {
		t.Errorf("GOMAXPROCS = %d, want 2", f.GOMAXPROCS)
	}
	if f.GoVersion != "go1.24.0" {
		t.Errorf("go_version = %q, want go1.24.0", f.GoVersion)
	}
	var names []string
	for _, b := range f.Benchmarks {
		names = append(names, b.Name)
	}
	if got := strings.Join(names, ","); got != "BenchmarkAssembler,BenchmarkLoadHot,BenchmarkSimulatorThroughput" {
		t.Errorf("benchmarks = %s", got)
	}
	if b := f.Benchmarks[2]; b.AllocsPerOp != 0 || b.Metrics["sim-inst/s"] != 1234567 {
		t.Errorf("SimulatorThroughput = %+v", b)
	}
}

func TestParseRejectsMixedGOMAXPROCS(t *testing.T) {
	in := "BenchmarkA-2 1 10 ns/op\nBenchmarkB-4 1 10 ns/op\n"
	if _, err := parse(strings.NewReader(in), 0, ""); err == nil {
		t.Fatal("benchmarks at GOMAXPROCS 2 and 4 parsed into one file")
	}
}

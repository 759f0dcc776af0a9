//go:build unix

package main

import (
	"io"
	"os"
	"syscall"
	"testing"
)

// TestOutputToFIFO checks an -out naming an existing non-regular file
// (a FIFO here, /dev/null in practice) is written through rather than
// replaced by the temp-file rename.
func TestOutputToFIFO(t *testing.T) {
	fx := newFixture(t)
	runIngest(t, fx, cmdCompress, "x.sage", "-ref", fx.ref, fx.path("reads.fq"))
	fifo := fx.path("out.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	got := make(chan int64, 1)
	go func() {
		f, err := os.Open(fifo)
		if err != nil {
			got <- -1
			return
		}
		defer f.Close()
		n, _ := io.Copy(io.Discard, f)
		got <- n
	}()
	if err := cmdDecompress([]string{"-in", fx.path("x.sage"), "-out", fifo}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("%s is no longer a FIFO: %v", fifo, err)
	}
	if n, want := <-got, int64(len(fx.reads.Bytes())); n != want {
		t.Fatalf("reader got %d B through the FIFO, want %d", n, want)
	}
}

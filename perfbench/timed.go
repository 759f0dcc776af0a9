package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"sage/internal/shard"
)

// runTimed is the --trace 0 run. After set-up it repeats rounds of
// compress pass → decode passes → serve window until --seconds have
// passed, each phase getting its workload's share of every round. A
// machine that is slow for a few seconds then slows a few samples of
// every metric rather than all samples of one: each throughput is the
// phase's total work over its total time, and each latency a percentile
// over the samples of every round.
func runTimed(e *runEnv) (map[string]metric, error) {
	// The benchmark's own resident input is subtracted from the heap
	// high-water; the program's state built from here on (mapper index,
	// server cache) is not.
	runtime.GC()
	base := heapNow()
	m, mapperSetup, err := e.buildMapper(5)
	if err != nil {
		return nil, err
	}
	// An untimed first build gives the container every later pass must
	// reproduce byte for byte, and the one decode and serve work on.
	var buf bytes.Buffer
	st, err := e.compress(m, e.workers, &buf)
	if err != nil {
		return nil, err
	}
	container := bytes.Clone(buf.Bytes())
	want := sha256.Sum256(container)
	c, err := shard.Parse(container)
	if err != nil {
		return nil, err
	}
	sv, err := e.newServeSet(container)
	if err != nil {
		return nil, err
	}
	srv, serveSetup, _, err := e.serveSetup(sv, 3)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	cl := e.newClients(sv)

	hp := startHeapPeak()
	var mbps []float64
	var cBytes, cTime, dBases, dTime float64
	var peaks [3][]float64
	so := &serveOutcome{before: srv.srv.Stats()}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	// Each phase window starts from a collected heap, so its high-water is
	// its own and not garbage the previous phase left behind. The second
	// GC frees what sync.Pools kept through the first.
	window := func() { runtime.GC(); runtime.GC(); hp.take() }
	for time.Now().Before(deadline) {
		window()
		t0 := time.Now()
		_, err := e.compress(m, e.workers, &buf)
		d := time.Since(t0)
		if err == nil && sha256.Sum256(buf.Bytes()) != want {
			err = fmt.Errorf("compress pass produced different container bytes")
		}
		e.tally.check(err)
		if err == nil {
			mbps = append(mbps, float64(len(e.in.fastq))/d.Seconds()/1e6)
			cBytes, cTime = cBytes+float64(len(e.in.fastq)), cTime+d.Seconds()
		}
		peaks[0] = append(peaks[0], hp.take())
		window()

		// A window lasts the phase's share of the round; the last round's
		// windows end at the deadline, the first round's always run in full.
		end := func(share float64) time.Time {
			t := time.Now().Add(time.Duration(float64(d) * share / e.w.compressShare))
			if len(peaks[2]) > 0 && t.After(deadline) {
				return deadline
			}
			return t
		}
		dEnd := end(e.w.decodeShare)
		for first := true; first || time.Now().Before(dEnd); first = false {
			dd, err := e.decodePass(c)
			e.tally.check(err)
			if err == nil {
				dBases, dTime = dBases+float64(e.in.bases), dTime+dd.Seconds()
			}
		}
		peaks[1] = append(peaks[1], hp.take())
		window()

		e.serveWindow(srv, sv, cl, time.Until(end(1-e.w.compressShare-e.w.decodeShare)), so)
		peaks[2] = append(peaks[2], hp.take())
	}
	hp.stop()
	so.after = srv.srv.Stats()
	if cTime == 0 || dTime == 0 {
		return nil, fmt.Errorf("every compress or decode pass failed")
	}

	heap := 0.0
	for i, p := range peaks {
		heap = max(heap, median(p))
		e.note(fmt.Sprintf("heap_peak_mb_phase%d", i), (median(p)-float64(base))/1e6)
	}
	e.note("rounds", len(peaks[0]))
	e.note("compress_passes", len(mbps))
	e.note("decode_mbases", dBases/1e6)
	e.note("compress_mbps_each", mbps)
	e.note("container_bytes", len(container))
	e.note("shards", st.Shards)
	e.note("setup_mapper_s", mapperSetup)
	e.note("setup_serve_s", serveSetup)
	e.noteServe(srv, sv, so)

	met := map[string]metric{
		"setup_s":             {mapperSetup + serveSetup, "s"},
		"compress_mbps":       {cBytes / cTime / 1e6, "MB/s"},
		"compression_ratio":   {float64(len(e.in.fastq)) / float64(len(container)), "x"},
		"decompress_mbases_s": {dBases / dTime / 1e6, "Mbases/s"},
		"peak_heap_mb":        {(heap - float64(base)) / 1e6, "MB"},
	}
	for k, v := range so.metrics() {
		met[k] = v
	}
	att, failed := e.tally.attempted.Load(), e.tally.failed.Load()
	met["success_rate"] = metric{1 - float64(failed)/float64(max(att, 1)), "frac"}
	return met, nil
}

// heapPeak samples the Go heap (objects allocated and not yet freed)
// from runtime/metrics every 2 ms, keeping the high-water
// mark since the last take.
type heapPeak struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			now := heapNow()
			for p := h.peak.Load(); now > p && !h.peak.CompareAndSwap(p, now); p = h.peak.Load() {
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the high-water mark since the last take and restarts it
// from the heap's current size.
func (h *heapPeak) take() float64 {
	now := heapNow()
	return float64(max(h.peak.Swap(now), now))
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapPeak) stop() {
	close(h.quit)
	<-h.done
}

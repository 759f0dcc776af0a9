package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"time"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/headers"
	"sage/internal/mapper"
	"sage/internal/pargz"
	"sage/internal/qual"
	"sage/internal/reorder"
	"sage/internal/shard"
)

// The traced run (--trace 1) is serial: one worker and GOMAXPROCS=1, so
// wall time is never shared between layers. It times the calls into each
// layer's public functions from here, on the same data the pipeline
// sees, and takes a layer's self time as its call's time minus the time
// of the calls it makes into other layers (timed apart on the same
// inputs). trace.coverage is the summed self time over the serial
// end-to-end time of the same work: what it leaves out is unattributed.

// timer accumulates wall time of timed calls.
type timer time.Duration

func (t *timer) time(f func()) {
	t0 := time.Now()
	f()
	*t += timer(time.Since(t0))
}

func (t timer) s() float64 { return time.Duration(t).Seconds() }

// rate returns units per second over t, scaled down by div (0 when t
// did no work).
func rate(units float64, t timer, div float64) float64 {
	if t <= 0 {
		return 0
	}
	return units / t.s() / div
}

func perUnit(t timer, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(time.Duration(t)) / float64(n) / float64(unit)
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func runTraced(e *runEnv) (map[string]metric, error) {
	m, _, err := e.buildMapper(1)
	if err != nil {
		return nil, err
	}
	// Determinism: the timed run's parallel container, rebuilt here.
	var par bytes.Buffer
	if _, err := e.compress(m, e.workers, &par); err != nil {
		return nil, err
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	m, indexBuild, err := e.buildMapper(3)
	if err != nil {
		return nil, err
	}
	met := map[string]metric{"mapper.index_build_s": {indexBuild, "s"}}

	// Serial end-to-end compress; its bytes must equal the parallel build.
	var ser bytes.Buffer
	var tC timer
	var st *shard.Stats
	tC.time(func() { st, err = e.compress(m, 1, &ser) })
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(ser.Bytes()) != sha256.Sum256(par.Bytes()) {
		e.tally.fail(fmt.Errorf("1-worker container differs from the %d-worker container", e.workers))
	} else {
		e.tally.ok()
	}
	container := ser.Bytes()
	c, err := shard.Parse(container)
	if err != nil {
		return nil, err
	}
	met["shard.index_bytes"] = metric{float64(st.HeaderBytes), "B"}

	encCovered, err := e.traceEncode(m, c.Index.SketchBytes, met)
	if err != nil {
		return nil, err
	}
	decCovered, tD, err := e.traceDecode(c, met)
	if err != nil {
		return nil, err
	}
	met["trace.coverage"] = metric{(encCovered + decCovered) / (tC.s() + tD), "frac"}
	e.note("serial_compress_s", tC.s())
	e.note("serial_decode_s", tD)
	e.note("encode_covered_s", encCovered)
	e.note("decode_covered_s", decCovered)

	// The serve layer's counters need concurrent clients (dedup only
	// happens under concurrency), so this phase runs like the timed one.
	runtime.GOMAXPROCS(prev)
	sv, err := e.newServeSet(container)
	if err != nil {
		return nil, err
	}
	srv, _, openMs, err := e.serveSetup(sv, 3)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	so := &serveOutcome{before: srv.srv.Stats()}
	serveShare := 1 - e.w.compressShare - e.w.decodeShare
	e.serveWindow(srv, sv, e.newClients(sv), time.Duration(e.seconds*serveShare*float64(time.Second)), so)
	so.after = srv.srv.Stats()
	e.noteServe(srv, sv, so)
	b, a := so.before, so.after
	reqs := int64(len(so.reads) + len(so.queries))
	met["shard.open_ms"] = metric{openMs, "ms"}
	met["shard.pruned_frac"] = metric{frac(a.ShardsPruned-b.ShardsPruned, a.ShardsPruned-b.ShardsPruned+a.ShardsScanned-b.ShardsScanned), "frac"}
	met["serve.hit_ratio"] = metric{frac(a.Hits-b.Hits, a.Hits-b.Hits+a.Misses-b.Misses), "frac"}
	met["serve.decodes_per_req"] = metric{frac(a.Decodes-b.Decodes, reqs), "count"}
	met["serve.dedup_frac"] = metric{frac(a.Deduped-b.Deduped, a.Decodes-b.Decodes+a.Deduped-b.Deduped), "frac"}
	met["serve.evictions_per_req"] = metric{frac(a.Evictions-b.Evictions, reqs), "count"}
	return met, nil
}

// traceEncode times the compress-side layers on the batches the pipeline
// cuts, returning the summed self time.
func (e *runEnv) traceEncode(m *mapper.Mapper, sketchBytes int, met map[string]metric) (float64, error) {
	var err error
	plain := e.in.fastq

	// pargz: gunzip alone.
	var tGz timer
	members := 0
	if e.w.gzip {
		var r *pargz.Reader
		var out []byte
		tGz.time(func() {
			if r, err = pargz.NewReader(bytes.NewReader(e.in.gz), pargz.Options{Workers: 1}); err == nil {
				out, err = io.ReadAll(r)
			}
		})
		if err != nil {
			return 0, fmt.Errorf("gunzip: %w", err)
		}
		members = int(r.Stats().Members)
		r.Close()
		if !bytes.Equal(out, plain) {
			e.tally.fail(fmt.Errorf("gunzip output differs from the input"))
		} else {
			e.tally.ok()
		}
	}
	met["pargz.gunzip_mbps"] = metric{rate(float64(len(plain)), tGz, 1e6), "MB/s"}
	met["pargz.members"] = metric{float64(members), "count"}

	// fastq: parse alone. Only the Next calls are timed.
	var tParse timer
	br := fastq.NewBatchReader(bytes.NewReader(plain), e.w.shardReads)
	for {
		tParse.time(func() { _, err = br.Next() })
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("parse: %w", err)
		}
	}
	met["fastq.parse_mbps"] = metric{rate(float64(len(plain)), tParse, 1e6), "MB/s"}

	// reorder: drain the stage (intake, spill, merge), which parses its
	// upstream; its self time excludes the parse timed above.
	var batches [][]fastq.Record
	var tStage timer
	spills := 0
	if e.w.reorder {
		var st *reorder.Stage
		tStage.time(func() {
			st, err = reorder.NewStage(fastq.NewBatchReader(bytes.NewReader(plain), e.w.shardReads), reorder.Config{
				Mode: reorder.ModeClump, BatchSize: e.w.shardReads,
				Sort: reorder.SortConfig{MemBudget: e.w.sortBudget, TmpDir: e.tmp},
			})
		})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		for {
			var b fastq.Batch
			tStage.time(func() { b, err = st.Next() })
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, fmt.Errorf("reorder: %w", err)
			}
			recs := make([]fastq.Record, len(b.Records))
			for i := range b.Records {
				recs[i] = b.Records[i].Clone()
			}
			batches = append(batches, recs)
		}
		spills = st.SpilledRuns()
	} else {
		for _, b := range e.in.reads.Batches(e.w.shardReads) {
			batches = append(batches, b.Records)
		}
	}
	reorderSelf := max(0, tStage-tParse) // 0 when there is no stage
	met["reorder.stage_s"] = metric{tStage.s(), "s"}
	met["reorder.spilled_runs"] = metric{float64(spills), "count"}

	// Per batch: mapper, qual, headers, zone map, and the core codec that
	// calls the first three.
	opt := e.w.options(e.in.ref, m, 1)
	blockOpt := opt.Core
	blockOpt.EmbedConsensus, blockOpt.Workers = false, 1
	var tMap, tQual, tHdr, tCore, tZone timer
	var reads, mapped, chimeric, qualSyms, qualBytes, hdrBytes, hdrIn, dnaBytes int64
	var bases int64
	for _, recs := range batches {
		for i := range recs {
			var aln mapper.Alignment
			tMap.time(func() { aln = m.Map(recs[i].Seq) })
			reads++
			bases += int64(len(recs[i].Seq))
			if aln.Mapped {
				mapped++
				if len(aln.Segments) > 1 {
					chimeric++
				}
			}
		}
		if e.w.lossless {
			quals := make([][]byte, len(recs))
			hs := make([]string, len(recs))
			for i := range recs {
				quals[i], hs[i] = recs[i].Qual, recs[i].Header
				qualSyms += int64(len(recs[i].Qual))
				hdrIn += int64(len(recs[i].Header) + 1)
			}
			var q, h []byte
			tQual.time(func() { q, err = qual.Compress(quals) })
			if err != nil {
				return 0, err
			}
			tHdr.time(func() { h, err = headers.Compress(hs) })
			if err != nil {
				return 0, err
			}
			qualBytes += int64(len(q))
			hdrBytes += int64(len(h))
		}
		var enc *core.Encoded
		tCore.time(func() { enc, err = core.Compress(&fastq.ReadSet{Records: recs}, blockOpt) })
		if err != nil {
			return 0, err
		}
		dnaBytes += int64(enc.Stats.DNABytes)
		tZone.time(func() { shard.ComputeZoneMap(recs, sketchBytes, e.w.lossless) })
	}
	coreSelf := max(0, tCore-tMap-tQual-tHdr)
	n := int(reads)
	met["mapper.map_ns_per_read"] = metric{perUnit(tMap, n, time.Nanosecond), "ns"}
	met["mapper.map_mbases_s"] = metric{rate(float64(bases), tMap, 1e6), "Mbases/s"}
	met["mapper.mapped_frac"] = metric{frac(mapped, reads), "frac"}
	met["mapper.chimeric_frac"] = metric{frac(chimeric, reads), "frac"}
	met["qual.encode_mbps"] = metric{rate(float64(qualSyms), tQual, 1e6), "MB/s"}
	met["qual.bits_per_symbol"] = metric{8 * float64(frac(qualBytes, qualSyms)), "bits"}
	met["headers.encode_mbps"] = metric{rate(float64(hdrIn), tHdr, 1e6), "MB/s"}
	met["headers.bytes_per_read"] = metric{frac(hdrBytes, reads), "B"}
	met["core.encode_self_ns_per_read"] = metric{perUnit(coreSelf, n, time.Nanosecond), "ns"}
	met["core.dna_bits_per_base"] = metric{8 * frac(dnaBytes, bases), "bits"}
	met["shard.zonemap_ns_per_read"] = metric{perUnit(tZone, n, time.Nanosecond), "ns"}
	covered := tGz + tParse + reorderSelf + tMap + tQual + tHdr + coreSelf + tZone
	return covered.s(), nil
}

// traceDecode times the serial end-to-end decode in the workload's
// format and its layers: the shard block read, the core codec, quality
// and header decode inside it, and formatting (FASTQ text or 3-bit).
func (e *runEnv) traceDecode(c *shard.Container, met map[string]metric) (float64, float64, error) {
	var err error
	n := c.NumShards()

	// Serial end-to-end decode in the consumer's format.
	var tD timer
	if e.w.dna3bit {
		tD.time(func() {
			for i := 0; i < n && err == nil; i++ {
				var rs *fastq.ReadSet
				if rs, err = c.DecompressShard(i, nil); err == nil {
					_, err = core.FormatReads(rs, genome.Format3Bit)
				}
			}
		})
	} else {
		tD.time(func() { err = c.DecompressTo(io.Discard, nil, 1) })
	}
	if err != nil {
		return 0, 0, err
	}

	var tBlock, tCore, tQual, tHdr, tFmt timer
	var reads, bases, qualSyms, hdrOut int64
	for i := 0; i < n; i++ {
		var blk []byte
		tBlock.time(func() { blk, err = c.Block(i) })
		if err != nil {
			return 0, 0, err
		}
		var rs *fastq.ReadSet
		tCore.time(func() { rs, err = core.Decompress(blk, c.Consensus) })
		if err != nil {
			return 0, 0, err
		}
		reads += int64(len(rs.Records))
		bases += int64(rs.TotalBases())
		if e.w.lossless {
			quals := make([][]byte, len(rs.Records))
			lens := make([]int, len(rs.Records))
			hs := make([]string, len(rs.Records))
			for j := range rs.Records {
				quals[j], lens[j], hs[j] = rs.Records[j].Qual, len(rs.Records[j].Qual), rs.Records[j].Header
				qualSyms += int64(len(rs.Records[j].Qual))
				hdrOut += int64(len(rs.Records[j].Header) + 1)
			}
			q, err := qual.Compress(quals)
			if err != nil {
				return 0, 0, err
			}
			h, err := headers.Compress(hs)
			if err != nil {
				return 0, 0, err
			}
			tQual.time(func() { _, err = qual.Decompress(q, lens) })
			if err != nil {
				return 0, 0, err
			}
			tHdr.time(func() { _, err = headers.Decompress(h) })
			if err != nil {
				return 0, 0, err
			}
		}
		if e.w.dna3bit {
			tFmt.time(func() { _, err = core.FormatReads(rs, genome.Format3Bit) })
		} else {
			tFmt.time(func() { err = rs.Write(io.Discard) })
		}
		if err != nil {
			return 0, 0, err
		}
	}
	coreSelf := max(0, tCore-tQual-tHdr)
	met["core.decode_self_ns_per_read"] = metric{perUnit(coreSelf, int(reads), time.Nanosecond), "ns"}
	met["qual.decode_mbps"] = metric{rate(float64(qualSyms), tQual, 1e6), "MB/s"}
	met["headers.decode_mbps"] = metric{rate(float64(hdrOut), tHdr, 1e6), "MB/s"}
	met["shard.decode_ms_per_shard"] = metric{perUnit(tBlock+tCore, n, time.Millisecond), "ms"}
	fmtRate := 0.0
	if e.w.dna3bit {
		fmtRate = rate(float64(bases), tFmt, 1e6)
	}
	met["core.format_mbases_s"] = metric{fmtRate, "Mbases/s"}

	// Original-order restore cost over plain streaming decode; only a
	// reordered container has any.
	restore := 0.0
	if c.Index.ReorderMode != shard.ReorderNone {
		var tOrig, tPlain timer
		tPlain.time(func() { err = c.DecompressTo(io.Discard, nil, 1) })
		if err != nil {
			return 0, 0, err
		}
		tOrig.time(func() {
			err = c.DecompressOriginalTo(io.Discard, nil, 1, reorder.SortConfig{MemBudget: e.w.sortBudget, TmpDir: e.tmp})
		})
		if err != nil {
			return 0, 0, err
		}
		restore = tOrig.s() - tPlain.s()
	}
	met["reorder.restore_overhead_s"] = metric{restore, "s"}

	covered := tBlock + max(0, tCore-tQual-tHdr) + tQual + tHdr + tFmt
	return covered.s(), tD.s(), nil
}

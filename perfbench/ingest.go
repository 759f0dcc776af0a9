package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/mapper"
	"sage/internal/reorder"
	"sage/internal/shard"
)

// options returns the compression options the workload runs with.
func (w workload) options(ref genome.Seq, m *mapper.Mapper, workers int) shard.Options {
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = w.shardReads
	opt.Workers = workers
	opt.Core.IncludeQuality = w.lossless
	opt.Core.IncludeHeaders = w.lossless
	opt.Core.SharedMapper = m
	return opt
}

// source builds the ingest pipeline the CLI builds: Sniff (gzip tiers via
// pargz) → BatchReader → optional reorder stage. close releases it.
func (e *runEnv) source(threads int) (src fastq.BatchSource, close func(), err error) {
	raw := e.in.fastq
	if e.w.gzip {
		raw = e.in.gz
	}
	r, err := fastq.Sniff(bytes.NewReader(raw), fastq.SniffOptions{Name: e.w.name, Threads: threads})
	if err != nil {
		return nil, nil, err
	}
	br := fastq.NewBatchReader(r, e.w.shardReads)
	if !e.w.reorder {
		return br, func() { fastq.CloseSniffed(r) }, nil
	}
	st, err := reorder.NewStage(br, reorder.Config{
		Mode: reorder.ModeClump, BatchSize: e.w.shardReads,
		Sort: reorder.SortConfig{MemBudget: e.w.sortBudget, TmpDir: e.tmp},
	})
	if err != nil {
		fastq.CloseSniffed(r)
		return nil, nil, err
	}
	return st, func() { st.Close(); fastq.CloseSniffed(r) }, nil
}

// compress builds the container once with the given worker count.
func (e *runEnv) compress(m *mapper.Mapper, workers int, out *bytes.Buffer) (*shard.Stats, error) {
	src, done, err := e.source(workers)
	if err != nil {
		return nil, err
	}
	defer done()
	out.Reset()
	return shard.CompressPipeline(src, out, e.w.options(e.in.ref, m, workers))
}

// buildMapper times mapper.New (the first part of set-up) n times and
// returns the last mapper with the median time.
func (e *runEnv) buildMapper(n int) (*mapper.Mapper, float64, error) {
	var m *mapper.Mapper
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		if m, err = mapper.New(e.in.ref, e.w.options(e.in.ref, nil, 1).Core.Mapper); err != nil {
			return nil, 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return m, median(ts), nil
}

// decodePass decodes the whole container once in the consumer's format
// and checks it against the input: FASTQ text through DecompressTo, or
// shard by shard through DecompressShard + core.FormatReads (3-bit),
// read back with genome.Decode off the clock. The FASTQ stream is digested
// as it is written.
func (e *runEnv) decodePass(c *shard.Container) (time.Duration, error) {
	if !e.w.dna3bit {
		h := &recordHasher{}
		t0 := time.Now()
		if err := c.DecompressTo(h, nil, e.workers); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		got, err := h.finish()
		if err != nil {
			return 0, err
		}
		if got != e.in.recs {
			return 0, fmt.Errorf("decoded FASTQ digest %v, input %v", got, e.in.recs)
		}
		return d, nil
	}

	n := c.NumShards()
	type shardOut struct {
		rs  *fastq.ReadSet
		fmt [][]byte
		err error
	}
	outs := make([]shardOut, n)
	next := make(chan int, n) // sized to every shard: all sends happen up front
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < e.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rs, err := c.DecompressShard(i, nil)
				if err == nil {
					outs[i].fmt, err = core.FormatReads(rs, genome.Format3Bit)
				}
				outs[i].rs, outs[i].err = rs, err
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	var got digest
	for i := range outs {
		if outs[i].err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, outs[i].err)
		}
		for j, b := range outs[i].fmt {
			seq, err := genome.Decode(b, len(outs[i].rs.Records[j].Seq), genome.Format3Bit)
			if err != nil {
				return 0, fmt.Errorf("shard %d read %d: %w", i, j, err)
			}
			got.add(seq)
		}
	}
	if got != e.in.seqs {
		return 0, fmt.Errorf("3-bit reads digest %v, input bases %v", got, e.in.seqs)
	}
	return d, nil
}

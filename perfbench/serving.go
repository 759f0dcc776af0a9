package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"time"

	"sage/internal/genome"
	"sage/internal/serve"
	"sage/internal/shard"
)

const (
	// warmRequests is the fixed cache warm-up, part of serve set-up.
	warmRequests = 64
	// queryEvery makes every queryEvery-th request of a client a k-mer
	// count query; the rest are shard reads. A fixed interleave (rather
	// than a coin flip) guarantees the sample counts the percentiles need.
	queryEvery = 40
	// kmerLen is the query k-mer length: longer than the zone-map sketch
	// k (11), so pruning works from several sketch probes.
	kmerLen = 20
	// nKmers is the pool of query k-mers drawn from the data.
	nKmers = 32
)

// serveSet is what the serve phase checks against, computed before it.
type serveSet struct {
	container  []byte
	shardHash  []uint64 // hash of DecompressShard's FASTQ text per shard
	shardBases []int64
	decoded    int64 // decoded container bytes (FASTQ text)
	kmers      []string
	kmerCount  []int // shard.Filter match count per k-mer
	hot        []int // shard ids by Zipf rank
}

// newServeSet precomputes every expected answer: the text of each shard
// through DecompressShard, and each query k-mer's match count through
// shard.Filter.
func (e *runEnv) newServeSet(container []byte) (*serveSet, error) {
	c, err := shard.Parse(container)
	if err != nil {
		return nil, err
	}
	n := c.NumShards()
	sv := &serveSet{container: container, shardHash: make([]uint64, n), shardBases: make([]int64, n)}
	for i := 0; i < n; i++ {
		rs, err := c.DecompressShard(i, nil)
		if err != nil {
			return nil, fmt.Errorf("expected text of shard %d: %w", i, err)
		}
		text := rs.Bytes()
		sv.shardHash[i] = maphash.Bytes(hashSeed, text)
		sv.shardBases[i] = int64(rs.TotalBases())
		sv.decoded += int64(len(text))
	}

	rng := rand.New(rand.NewSource(e.seed*7919 + 17))
	sv.hot = rng.Perm(n)
	recs := e.in.reads.Records
	for tries := 0; len(sv.kmers) < nKmers && tries < 100*nKmers; tries++ {
		r := recs[rng.Intn(len(recs))]
		if len(r.Seq) < kmerLen {
			continue
		}
		off := rng.Intn(len(r.Seq) - kmerLen + 1)
		k := r.Seq[off : off+kmerLen]
		if k.HasN() {
			continue
		}
		f, err := c.Filter(io.Discard, nil, &shard.Predicate{Subseq: k}, e.workers)
		if err != nil {
			return nil, fmt.Errorf("expected count of k-mer query: %w", err)
		}
		sv.kmers = append(sv.kmers, string(genome.AppendASCII(nil, k)))
		sv.kmerCount = append(sv.kmerCount, f.ReadsMatched)
	}
	if len(sv.kmers) == 0 {
		return nil, fmt.Errorf("no N-free %d-mer found for queries", kmerLen)
	}
	return sv, nil
}

// server is one opened, served container.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	budget int64
	openMs float64
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// openServer is the serve set-up: shard.Open over the container bytes,
// serve.New with a cache of cacheFrac of the decoded container, a
// loopback listener, and the fixed warm-up.
func (e *runEnv) openServer(sv *serveSet, rng *rand.Rand) (*server, error) {
	t0 := time.Now()
	c, err := shard.Open(bytes.NewReader(sv.container), int64(len(sv.container)))
	if err != nil {
		return nil, err
	}
	openMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	budget := int64(float64(sv.decoded) * e.w.cacheFrac)
	srv, err := serve.New(c, serve.Config{CacheBytes: budget, Workers: e.workers})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	s := &server{srv: srv, ts: ts, client: ts.Client(), budget: budget, openMs: openMs}
	z := sv.zipf(rng, e.w.zipfS)
	var buf bytes.Buffer
	for i := 0; i < warmRequests; i++ {
		_, err := s.getReads(sv, sv.hot[z.Uint64()], &buf)
		e.tally.check(err)
	}
	return s, nil
}

func (sv *serveSet) zipf(rng *rand.Rand, s float64) *rand.Zipf {
	return rand.NewZipf(rng, s, 1, uint64(len(sv.hot)-1))
}

// getReads fetches shard i's reads into buf and checks them against the
// shard's text, returning its base count.
func (s *server) getReads(sv *serveSet, i int, buf *bytes.Buffer) (int64, error) {
	body, err := s.get(fmt.Sprintf("/c/%s/shard/%d/reads", serve.DefaultName, i), buf)
	if err != nil {
		return 0, err
	}
	if maphash.Bytes(hashSeed, body) != sv.shardHash[i] {
		return 0, fmt.Errorf("shard %d reads body differs from DecompressShard's text", i)
	}
	return sv.shardBases[i], nil
}

// query runs k-mer query k as a count and checks it against shard.Filter.
func (s *server) query(sv *serveSet, k int, buf *bytes.Buffer) error {
	body, err := s.get(fmt.Sprintf("/c/%s/query?count=1&kmer=%s", serve.DefaultName, sv.kmers[k]), buf)
	if err != nil {
		return err
	}
	var sum struct {
		ReadsMatched int `json:"reads_matched"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		return fmt.Errorf("query %s: %w", sv.kmers[k], err)
	}
	if sum.ReadsMatched != sv.kmerCount[k] {
		return fmt.Errorf("query %s matched %d reads, shard.Filter %d", sv.kmers[k], sum.ReadsMatched, sv.kmerCount[k])
	}
	return nil
}

// get reads the response body into buf, which is reused across a
// client's requests so the benchmark's own garbage stays small.
func (s *server) get(path string, buf *bytes.Buffer) ([]byte, error) {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return buf.Bytes(), nil
}

// serveOutcome accumulates the timed serve windows of a run.
type serveOutcome struct {
	reads, queries []time.Duration
	bases          int64
	elapsed        time.Duration
	before, after  serve.Stats
}

// serveSetup performs the serve set-up setups times and returns the last
// server with the median set-up time and median shard.Open time (ms).
func (e *runEnv) serveSetup(sv *serveSet, setups int) (*server, float64, float64, error) {
	rng := rand.New(rand.NewSource(e.seed*104729 + 3))
	var s *server
	var setupS, openMs []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = e.openServer(sv, rng); err != nil {
			return nil, 0, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		openMs = append(openMs, s.openMs)
	}
	return s, median(setupS), median(openMs), nil
}

// client is one closed-loop client's request stream; it carries over
// from one serve window to the next.
type client struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	op   int
	buf  bytes.Buffer
}

func (e *runEnv) newClients(sv *serveSet) []*client {
	rng := rand.New(rand.NewSource(e.seed*15485863 + 5))
	cl := make([]*client, e.workers)
	for k := range cl {
		r := rand.New(rand.NewSource(rng.Int63()))
		cl[k] = &client{rng: r, zipf: sv.zipf(r, e.w.zipfS)}
	}
	return cl
}

// serveWindow runs the closed loop for dur: each client waits for its
// answer before sending its next request, like an analysis node waiting
// for its shard. Every queryEvery-th request of a client is a k-mer
// count query, the rest are shard reads.
func (e *runEnv) serveWindow(s *server, sv *serveSet, cl []*client, dur time.Duration, o *serveOutcome) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reads, queries []time.Duration
			var bases int64
			for time.Now().Before(deadline) {
				c.op++
				t0 := time.Now()
				if c.op%queryEvery == 0 {
					err := s.query(sv, c.rng.Intn(len(sv.kmers)), &c.buf)
					e.tally.check(err)
					queries = append(queries, time.Since(t0))
					continue
				}
				b, err := s.getReads(sv, sv.hot[c.zipf.Uint64()], &c.buf)
				e.tally.check(err)
				reads = append(reads, time.Since(t0))
				bases += b
			}
			mu.Lock()
			o.reads = append(o.reads, reads...)
			o.queries = append(o.queries, queries...)
			o.bases += bases
			mu.Unlock()
		}()
	}
	wg.Wait()
	o.elapsed += time.Since(start)
}

// noteServe records the serve phase's sizes and counts for provenance.
func (e *runEnv) noteServe(s *server, sv *serveSet, o *serveOutcome) {
	e.note("clients", e.workers)
	e.note("cache_budget_bytes", s.budget)
	e.note("decoded_container_bytes", sv.decoded)
	e.note("serve_shards", len(sv.hot))
	e.note("zipf_s", e.w.zipfS)
	e.note("warm_requests", warmRequests)
	e.note("reads_requests", len(o.reads))
	e.note("query_requests", len(o.queries))
	e.note("served_mbases_s", float64(o.bases)/o.elapsed.Seconds()/1e6)
	e.note("hit_ratio", frac(o.after.Hits-o.before.Hits, o.after.Hits-o.before.Hits+o.after.Misses-o.before.Misses))
}

// pct returns the q-quantile of ds in ms by nearest rank, and whether at
// least 10 samples lie beyond it.
func pct(ds []time.Duration, q float64) (float64, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return float64(s[rank].Nanoseconds()) / 1e6, len(s)-1-rank >= 10
}

func (o *serveOutcome) metrics() map[string]metric {
	m := map[string]metric{
		"serve_rps": {float64(len(o.reads)+len(o.queries)) / o.elapsed.Seconds(), "1/s"},
	}
	for _, p := range []struct {
		name string
		ds   []time.Duration
		q    float64
	}{
		{"reads_p50_ms", o.reads, 0.5},
		{"reads_p99_ms", o.reads, 0.99},
		{"query_p50_ms", o.queries, 0.5},
		{"query_p90_ms", o.queries, 0.9},
	} {
		v, enough := pct(p.ds, p.q)
		if !enough {
			fmt.Fprintf(os.Stderr, "perfbench: warning: %s rests on %d samples, fewer than 10 beyond it\n", p.name, len(p.ds))
		}
		m[p.name] = metric{v, "ms"}
	}
	return m
}

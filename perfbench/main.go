// Command perfbench is the repository's wall-clock benchmark. One run
// generates one workload from a seed, drives the program only through its
// public package functions (fastq.Sniff, shard.CompressPipeline,
// shard.Open/Parse, Container.DecompressTo/DecompressShard,
// core.FormatReads, serve.New over loopback HTTP), checks every output,
// and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload short-gz --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a serial traced run times the calls into each layer's public
// functions and the result carries the per-layer metrics. Every number is
// wall-clock on the machine it runs on; nothing is modeled.
//
// Every workload runs the same three timed phases over the container it
// builds — compress, decode, serve — so every end-to-end metric has a
// value on every workload; the workloads differ in their data and in how
// the run's seconds are shared between the phases.
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
)

// workload is one named input plus the way the phases treat it.
type workload struct {
	name    string
	dataset string  // RS label in bench.StandardDatasets
	scale   float64 // bench.StandardDatasets scale
	// gzip wraps the FASTQ in BGZF (pargz.Writer) before ingest.
	gzip bool
	// lossless keeps quality scores and read names; otherwise the
	// container holds DNA only (§5.1.5: quality is optional).
	lossless bool
	// reorder clump-sorts reads through reorder.NewStage, with a sort
	// budget of sortBudget bytes (small enough to spill).
	reorder    bool
	sortBudget int64
	shardReads int
	// dna3bit decodes shard by shard to 3-bit reads (core.FormatReads)
	// instead of streaming FASTQ text with DecompressTo.
	dna3bit bool
	// compressShare and decodeShare are the shares of --seconds given to
	// the compress and decode phases; the serve phase gets the rest.
	compressShare, decodeShare float64
	// cacheFrac sizes the serve cache as a share of the decoded
	// container; zipfS is the Zipf exponent of the shard choice.
	cacheFrac float64
	zipfS     float64
}

// Workers and clients never exceed the two CPUs the benchmark is sized
// for; on a larger machine they stay at two so results stay comparable.
const maxParallel = 2

// The workloads. Sizes keep one run (generation, set-up, timed phases,
// checks) near 30 s on a 2-vCPU machine; see manifest.json for why each
// exists and which layers it loads.
var workloads = []workload{
	{
		name: "short-gz", dataset: "RS2", scale: 0.15, gzip: true, lossless: true,
		shardReads: 256, compressShare: 0.5, decodeShare: 0.15,
		cacheFrac: 1.25, zipfS: 1.3,
	},
	{
		name: "long-dna", dataset: "RS4", scale: 0.45, reorder: true, sortBudget: 256 << 10,
		shardReads: 16, dna3bit: true, compressShare: 0.65, decodeShare: 0.1,
		cacheFrac: 1.25, zipfS: 1.3,
	},
	{
		name: "serve-zipf", dataset: "RS1", scale: 0.5, lossless: true,
		shardReads: 128, compressShare: 0.3, decodeShare: 0.1,
		cacheFrac: 0.5, zipfS: 1.5,
	},
}

//go:embed manifest.json
var manifestJSON []byte

// manifest holds the pinned input digests and the layer → end-to-end map.
type manifest struct {
	DefaultSeed int64 `json:"default_seed"`
	Inputs      map[string]struct {
		SHA256 string `json:"input_sha256"`
	} `json:"inputs"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failures. An error return, a non-200
// response, or an output that fails its check is one failure.
type tally struct {
	attempted, failed atomic.Int64
	logged            atomic.Int64
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(err error) {
	t.attempted.Add(1)
	t.failed.Add(1)
	if t.logged.Add(1) <= 10 {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", err)
	}
}

// check counts one operation, failed when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail(err)
		return
	}
	t.ok()
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phases, in seconds")
	trace := flag.Int("trace", 0, "1 runs the serial traced run and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var man manifest
	if err := json.Unmarshal(manifestJSON, &man); err != nil {
		return fmt.Errorf("manifest.json: %w", err)
	}
	if err := checkPin(*w, man); err != nil {
		return err
	}
	in, err := generate(*w, seed)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	env := &runEnv{w: *w, in: in, seed: seed, seconds: seconds, tmp: tmp,
		workers: min(maxParallel, runtime.NumCPU())}
	var metrics map[string]metric
	if traced {
		metrics, err = runTraced(env)
	} else {
		metrics, err = runTimed(env)
	}
	if err != nil {
		return err
	}
	printProvenance(env, traced)
	for _, k := range slices.Sorted(maps.Keys(metrics)) {
		fmt.Printf("%-32s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	res := result{
		Correct:   env.tally.failed.Load() == 0,
		Attempted: env.tally.attempted.Load(),
		Failed:    env.tally.failed.Load(),
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runEnv is one run's workload, input and bookkeeping.
type runEnv struct {
	w       workload
	in      *input
	seed    int64
	seconds float64
	tmp     string
	workers int
	tally   tally
	// prov collects run facts (sizes, counts, budgets) for provenance.
	prov map[string]any
}

func (e *runEnv) note(k string, v any) {
	if e.prov == nil {
		e.prov = map[string]any{}
	}
	e.prov[k] = v
}

// printProvenance prints one JSON line describing the run: what was
// built from which sources, on which machine, with which inputs.
func printProvenance(e *runEnv, traced bool) {
	p := map[string]any{
		"workload":          e.w.name,
		"seed":              e.seed,
		"traced":            traced,
		"commit":            os.Getenv("PERFBENCH_COMMIT"),
		"source_sha256":     sourceDigest(),
		"go":                runtime.Version(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"num_cpu":           runtime.NumCPU(),
		"cpu_model":         cpuModel(),
		"dataset":           fmt.Sprintf("%s@%g", e.w.dataset, e.w.scale),
		"input_fastq_bytes": len(e.in.fastq),
		"input_gz_bytes":    len(e.in.gz),
		"input_reads":       len(e.in.reads.Records),
		"input_bases":       e.in.bases,
		"workers":           e.workers,
		"shard_reads":       e.w.shardReads,
	}
	for k, v := range e.prov {
		p[k] = v
	}
	b, _ := json.Marshal(p) // map of plain values: cannot fail
	fmt.Println("provenance", string(b))
}

// sourceDigest hashes the Go sources and module files under the
// checkout root (the working directory), naming the code measured even
// where the checkout carries no commit.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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

package fftx

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The stage-graph refactor contract: scheduling policy moved out of the
// engines, behaviour did not. These digests were captured from the
// pre-refactor hand-rolled engines (original.go/tasksteps.go/taskiter.go/
// taskcombined.go before the graph package existed) and every run must
// still reproduce them bit-for-bit: same simulated runtime, same trace
// interval stream, same transformed bands. Each config is stored once and
// run in both modes: cost mode is real mode without the payload, so the two
// must agree on everything but the bands.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//	go test ./internal/fftx -run TestGoldenEngineDigests -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_engines.json from the current engines")

const goldenPath = "testdata/golden_engines.json"

type goldenDigest struct {
	Name      string `json:"name"`
	Runtime   string `json:"runtime"` // float64 bits, hex
	Intervals int    `json:"intervals"`
	TraceHash string `json:"trace_hash"`
	BandsHash string `json:"bands_hash,omitempty"` // ModeReal only
}

// goldenConfigs is the engine × gamma × shape matrix the digests cover, each
// in the mode its digest was stored from. Every entry must stay runnable
// forever; names key the golden file. All run Strict, so the mpi tag-reuse
// and ompss cycle checks see every engine in both modes; the checks charge
// nothing, so the stored digests are the non-strict ones.
func goldenConfigs() []struct {
	name string
	cfg  Config
} {
	mk := func(e Engine, ranks, ntg, nb int, m Mode) Config {
		return Config{Ecut: testEcut, Alat: testAlat, NB: nb, Ranks: ranks, NTG: ntg, Engine: e, Mode: m, Strict: true}
	}
	var out []struct {
		name string
		cfg  Config
	}
	add := func(name string, cfg Config) {
		out = append(out, struct {
			name string
			cfg  Config
		}{name, cfg})
	}
	for _, e := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter, EngineTaskCombined, EngineDataflow} {
		for _, rt := range [][2]int{{2, 2}, {3, 2}} {
			add(fmt.Sprintf("%v-%dx%d-real", e, rt[0], rt[1]), mk(e, rt[0], rt[1], 8, ModeReal))
		}
	}
	for _, e := range []Engine{EngineOriginal, EngineTaskIter, EngineDataflow} {
		cfg := mk(e, 2, 2, 8, ModeReal)
		cfg.Gamma = true
		add(fmt.Sprintf("%v-2x2-real-gamma", e), cfg)
	}
	nested := mk(EngineTaskSteps, 2, 2, 8, ModeReal)
	nested.NestedLoops = true
	nested.NestedGrainXY = 3
	nested.NestedGrainZ = 4
	add("task-steps-2x2-real-nested", nested)
	// Uneven pack/scatter extremes.
	add("original-4x1-real", mk(EngineOriginal, 4, 1, 4, ModeReal))
	add("original-1x4-real", mk(EngineOriginal, 1, 4, 8, ModeReal))
	seeded := mk(EngineTaskIter, 2, 2, 8, ModeCost)
	seeded.Seed = 3
	add("task-iter-2x2-cost-seed3", seeded)
	return out
}

// otherMode returns cfg in the mode it was not stored from.
func otherMode(cfg Config) Config {
	if cfg.Mode == ModeCost {
		cfg.Mode = ModeReal
	} else {
		cfg.Mode = ModeCost
	}
	return cfg
}

func digestOf(name string, res *Result) goldenDigest {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	ws := func(s string) { w64(uint64(len(s))); h.Write([]byte(s)) }
	for _, iv := range res.Trace.Intervals {
		w64(uint64(iv.Lane))
		w64(uint64(iv.Kind))
		wf(iv.Start)
		wf(iv.End)
		ws(iv.Phase)
		w64(uint64(iv.Class))
		wf(iv.Instr)
		ws(iv.Comm)
		w64(uint64(int64(iv.Tag)))
	}
	d := goldenDigest{
		Name:      name,
		Runtime:   fmt.Sprintf("%016x", math.Float64bits(res.Runtime)),
		Intervals: len(res.Trace.Intervals),
		TraceHash: fmt.Sprintf("%016x", h.Sum64()),
	}
	if res.Bands != nil {
		hb := fnv.New64a()
		wb := func(v uint64) {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			hb.Write(buf[:])
		}
		for _, band := range res.Bands {
			wb(uint64(len(band)))
			for _, c := range band {
				wb(math.Float64bits(real(c)))
				wb(math.Float64bits(imag(c)))
			}
		}
		d.BandsHash = fmt.Sprintf("%016x", hb.Sum64())
	}
	return d
}

// TestGoldenEngineDigests holds every engine to the pre-refactor goldens:
// simulated runtime, full trace interval stream and (in ModeReal)
// transformed bands are bit-identical, and the run in the other mode
// charges exactly the same runtime, interval count and trace.
func TestGoldenEngineDigests(t *testing.T) {
	var got []goldenDigest
	for _, c := range goldenConfigs() {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := digestOf(c.name, res)
		got = append(got, d)
		other, err := Run(otherMode(c.cfg))
		if err != nil {
			t.Fatalf("%s in the other mode: %v", c.name, err)
		}
		o := digestOf(c.name, other)
		o.BandsHash = d.BandsHash
		if o != d {
			t.Errorf("%s: cost and real mode charge differently:\n stored mode %+v\n other mode  %+v", c.name, d, o)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update): %v", err)
	}
	var want []goldenDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := map[string]goldenDigest{}
	for _, d := range want {
		wantBy[d.Name] = d
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, matrix has %d (regenerate with -update after an intended change)", len(want), len(got))
	}
	for _, g := range got {
		w, ok := wantBy[g.Name]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with -update after an intended change)", g.Name)
			continue
		}
		if g != w {
			t.Errorf("%s: behaviour diverged from pre-refactor golden:\n got  %+v\n want %+v", g.Name, g, w)
		}
	}
}

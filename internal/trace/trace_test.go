package trace

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	t := New(2, 1e9)
	r0 := Recorder{S: t, Lane: 0}
	r1 := Recorder{S: t, Lane: 1}
	r0.Compute(0, 1, "fft-z", 1, 0.5e9) // IPC 0.5
	r0.MPI("Alltoall", "world", 7, 1, 1.25, 1.5)
	r0.Compute(1.5, 2.5, "vofr", 2, 0.8e9) // IPC 0.8
	r1.Compute(0, 2, "fft-z", 1, 1.0e9)    // IPC 0.5
	r1.MPI("Alltoall", "world", 7, 2, 2.0, 2.5)
	r1.Idle(2.5, 3.0)
	return t
}

func TestSpanAndRuntime(t *testing.T) {
	tr := sample()
	s, e := tr.Span()
	if s != 0 || e != 3.0 {
		t.Fatalf("span = [%v,%v], want [0,3]", s, e)
	}
	if tr.Runtime() != 3.0 {
		t.Fatalf("runtime = %v", tr.Runtime())
	}
}

func TestIPC(t *testing.T) {
	tr := sample()
	iv := tr.Intervals[0]
	if got := tr.IPC(iv); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("IPC = %v, want 0.5", got)
	}
	// Non-compute interval has IPC 0.
	for _, iv := range tr.Intervals {
		if iv.Kind != KindCompute && tr.IPC(iv) != 0 {
			t.Fatalf("non-compute IPC = %v", tr.IPC(iv))
		}
	}
}

func TestTimeByKind(t *testing.T) {
	tr := sample()
	comp := tr.TimeByKind(KindCompute)
	if math.Abs(comp[0]-2.0) > 1e-12 || math.Abs(comp[1]-2.0) > 1e-12 {
		t.Fatalf("compute per lane = %v", comp)
	}
	sync := tr.TimeByKind(KindMPISync)
	if math.Abs(sync[0]-0.25) > 1e-12 {
		t.Fatalf("sync lane0 = %v", sync[0])
	}
	idle := tr.TimeByKind(KindIdle)
	if math.Abs(idle[1]-0.5) > 1e-12 {
		t.Fatalf("idle lane1 = %v", idle[1])
	}
}

func TestAvgIPCWeighted(t *testing.T) {
	tr := sample()
	// total instr = (0.5+0.8+1.0)e9 = 2.3e9; total compute time = 4 s at 1 GHz.
	want := 2.3e9 / (4 * 1e9)
	if got := tr.AvgIPC(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("AvgIPC = %v, want %v", got, want)
	}
}

func TestPhaseAvgIPC(t *testing.T) {
	tr := sample()
	// fft-z: 1.5e9 instr over 3 s.
	if got := tr.PhaseAvgIPC("fft-z"); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("fft-z IPC = %v, want 0.5", got)
	}
	if got := tr.PhaseAvgIPC("vofr"); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("vofr IPC = %v, want 0.8", got)
	}
}

func TestPhases(t *testing.T) {
	tr := sample()
	got := tr.Phases()
	if len(got) != 2 || got[0] != "fft-z" || got[1] != "vofr" {
		t.Fatalf("phases = %v", got)
	}
}

func TestPhaseBreakdownSorted(t *testing.T) {
	tr := sample()
	pb := tr.PhaseBreakdown()
	if len(pb) != 2 {
		t.Fatalf("breakdown = %+v", pb)
	}
	if pb[0].Phase != "fft-z" || pb[0].Count != 2 {
		t.Fatalf("first = %+v, want fft-z with count 2", pb[0])
	}
	if pb[0].Time < pb[1].Time {
		t.Fatal("breakdown not sorted by time desc")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	tr := sample()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lanes != tr.Lanes || got.Freq != tr.Freq || len(got.Intervals) != len(tr.Intervals) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	for i := range got.Intervals {
		if got.Intervals[i] != tr.Intervals[i] {
			t.Fatalf("interval %d mismatch: %+v vs %+v", i, got.Intervals[i], tr.Intervals[i])
		}
	}
}

func TestTimelineRenders(t *testing.T) {
	tr := sample()
	out := tr.Timeline(40, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 lanes
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "+") {
		t.Fatalf("expected both compute glyphs:\n%s", out)
	}
	if !strings.Contains(out, "t") {
		t.Fatalf("expected transfer glyph:\n%s", out)
	}
}

func TestIPCHistogramPlacement(t *testing.T) {
	tr := sample()
	h := tr.IPCHistogram(10, 1.0)
	// Lane 0: 1s at IPC 0.5 (bin 5), 1s at IPC 0.8 (bin 8).
	if math.Abs(h[0][5]-1.0) > 1e-12 {
		t.Fatalf("h[0][5] = %v", h[0][5])
	}
	if math.Abs(h[0][8]-1.0) > 1e-12 {
		t.Fatalf("h[0][8] = %v", h[0][8])
	}
	// Lane 1: 2s at IPC 0.5.
	if math.Abs(h[1][5]-2.0) > 1e-12 {
		t.Fatalf("h[1][5] = %v", h[1][5])
	}
}

func TestIPCHistogramClampsHighIPC(t *testing.T) {
	tr := New(1, 1e9)
	Recorder{S: tr, Lane: 0}.Compute(0, 1, "x", 0, 5e9) // IPC 5 > max 1
	h := tr.IPCHistogram(4, 1.0)
	if h[0][3] != 1.0 {
		t.Fatalf("high-IPC interval not clamped to last bin: %v", h[0])
	}
}

func TestRenderIPCHistogram(t *testing.T) {
	out := sample().RenderIPCHistogram(20, 1.0)
	if !strings.Contains(out, "lanes") || !strings.Contains(out, "#") {
		t.Fatalf("unexpected render:\n%s", out)
	}
}

func TestZeroDurationDropped(t *testing.T) {
	tr := New(1, 1e9)
	tr.Record(Interval{Lane: 0, Start: 1, End: 1, Kind: KindCompute})
	r := Recorder{S: tr, Lane: 0}
	r.Compute(2, 2, "fft-z", 1, 1e9)
	r.MPI("Alltoallv", "world", 7, 3, 3, 3)
	r.Runtime(4, 4)
	r.Idle(5, 5)
	if len(tr.Intervals) != 0 {
		t.Fatalf("zero-duration intervals kept: %+v", tr.Intervals)
	}
}

func TestRecordPanicsOnBadLane(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1e9).Record(Interval{Lane: 3, Start: 0, End: 1})
}

// Property: total time accounted by TimeByKind over all kinds equals the sum
// of all interval durations.
func TestPropertyKindPartition(t *testing.T) {
	f := func(spans []struct {
		Lane  uint8
		Dur   uint16
		KindN uint8
	}) bool {
		tr := New(8, 1e9)
		var want float64
		var cursor float64
		for _, s := range spans {
			d := float64(s.Dur) / 100
			iv := Interval{
				Lane:  int(s.Lane) % 8,
				Start: cursor,
				End:   cursor + d,
				Kind:  Kind(int(s.KindN) % 5),
				Instr: 1,
			}
			cursor += d
			tr.Record(iv)
			want += iv.Duration()
		}
		var got float64
		for k := KindCompute; k <= KindIdle; k++ {
			for _, v := range tr.TimeByKind(k) {
				got += v
			}
		}
		return math.Abs(got-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCommStatsAggregation(t *testing.T) {
	tr := New(3, 1e9)
	r0 := Recorder{S: tr, Lane: 0}
	r1 := Recorder{S: tr, Lane: 1}
	r2 := Recorder{S: tr, Lane: 2}
	r0.MPI("Alltoallv", "pack0", 0, 0, 0.5, 1.0)
	r1.MPI("Alltoallv", "pack0", 0, 0, 0.25, 1.0)
	r2.MPI("Alltoallv", "grp0", 0, 0, 0.1, 0.2)
	stats := tr.CommStats()
	if len(stats) != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats[0].Comm != "pack0" || stats[0].Calls != 2 || stats[0].Lanes != 2 {
		t.Fatalf("pack0 first with 2 calls/2 lanes, got %+v", stats[0])
	}
	if d := stats[0].SyncTime - 0.75; d > 1e-12 || d < -1e-12 {
		t.Fatalf("pack0 sync %v", stats[0].SyncTime)
	}
	if d := stats[0].XferTime - 1.25; d > 1e-12 || d < -1e-12 {
		t.Fatalf("pack0 xfer %v", stats[0].XferTime)
	}
	out := tr.FormatCommStats()
	if !strings.Contains(out, "pack0") || !strings.Contains(out, "grp0") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestDurationTimeline(t *testing.T) {
	tr := New(2, 1e9)
	r0 := Recorder{S: tr, Lane: 0}
	r0.Compute(0, 0.1, "short", 0, 1e7) // short burst
	r0.MPI("A", "c", 0, 0.1, 0.15, 0.2)
	r0.Compute(0.2, 2.0, "long", 2, 1e9) // long burst
	r1 := Recorder{S: tr, Lane: 1}
	r1.Compute(0, 2.0, "long", 2, 1e9)
	out := tr.DurationTimeline(40)
	if !strings.Contains(out, "#") {
		t.Fatalf("no long-burst shading:\n%s", out)
	}
	if !strings.Contains(out, ".") {
		t.Fatalf("no short-burst shading:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 lanes:\n%s", out)
	}
}

func TestDurationTimelineEmpty(t *testing.T) {
	if out := New(1, 1e9).DurationTimeline(10); !strings.Contains(out, "empty") {
		t.Fatalf("got %q", out)
	}
}

func TestPhaseTimeline(t *testing.T) {
	tr := sample()
	out := tr.PhaseTimeline(40)
	if !strings.Contains(out, "a=fft-z") || !strings.Contains(out, "b=vofr") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "-") {
		t.Fatalf("timeline content missing:\n%s", out)
	}
}

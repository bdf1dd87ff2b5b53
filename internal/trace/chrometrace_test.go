package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestExportTraceEvent(t *testing.T) {
	tr := New(2, 1e9)
	r0 := Recorder{S: tr, Lane: 0}
	r1 := Recorder{S: tr, Lane: 1}
	r0.Compute(0, 1, "fft-z", 1, 0.5e9)
	r0.MPI("Alltoall", "world", 7, 1, 1.25, 1.5)
	r1.Compute(0, 2, "fft-z", 1, 1.0e9)
	r1.Idle(2, 2.5)

	var buf bytes.Buffer
	if err := ExportTraceEvent(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Must be valid Chrome trace-event JSON.
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var meta, complete int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event name = %q", ev.Name)
			}
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("complete event %q has dur %g", ev.Name, ev.Dur)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 {
		t.Fatalf("thread_name events = %d, want 2 (one per lane)", meta)
	}
	// 2 computes + sync + transfer + idle.
	if complete != 5 {
		t.Fatalf("complete events = %d, want 5", complete)
	}
	// Spot-check: the fft-z compute on lane 0 maps to ts 0, dur 1e6 µs,
	// carries ipc in args.
	found := false
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Name == "fft-z" && ev.Tid == 0 {
			found = true
			if ev.Ts != 0 || ev.Dur != 1e6 {
				t.Fatalf("fft-z ts/dur = %g/%g, want 0/1e6", ev.Ts, ev.Dur)
			}
			if ipc, ok := ev.Args["ipc"].(float64); !ok || ipc != 0.5 {
				t.Fatalf("fft-z args ipc = %v, want 0.5", ev.Args["ipc"])
			}
		}
		if ev.Ph == "X" && ev.Cat == "mpi-sync" {
			if ev.Args["comm"] != "world" {
				t.Fatalf("mpi sync args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("lane-0 fft-z event missing")
	}
}

package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/task"
)

func sampleSchedule(t *testing.T) *core.Result {
	t.Helper()
	return core.MustSchedule(task.SectionVDExample(), 4, power.Unit(3, 0), alloc.DER, core.Options{})
}

func TestWriteChromeWellFormed(t *testing.T) {
	res := sampleSchedule(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, res.Final, 1e6); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var slices, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if ev["dur"].(float64) <= 0 {
				t.Errorf("non-positive duration event: %v", ev)
			}
			args := ev["args"].(map[string]any)
			if _, ok := args["frequency"]; !ok {
				t.Error("slice missing frequency arg")
			}
		case "M":
			metas++
		}
	}
	if slices != len(res.Final.Segments) {
		t.Errorf("slices = %d, want %d", slices, len(res.Final.Segments))
	}
	if metas != 1+res.Final.Cores {
		t.Errorf("metas = %d, want %d", metas, 1+res.Final.Cores)
	}
}

func TestWriteChromeRejectsBadScale(t *testing.T) {
	res := sampleSchedule(t)
	if err := WriteChrome(&bytes.Buffer{}, res.Final, 0); err == nil {
		t.Error("zero scale should fail")
	}
}

func TestWriteScheduleCSV(t *testing.T) {
	res := sampleSchedule(t)
	var buf bytes.Buffer
	if err := WriteScheduleCSV(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(res.Final.Segments) {
		t.Errorf("rows = %d, want %d", len(rows), 1+len(res.Final.Segments))
	}
	if rows[0][0] != "task" || rows[0][5] != "work" {
		t.Errorf("header = %v", rows[0])
	}
}

// Package trace exports schedules to standard interchange formats: the
// Chrome trace-event JSON consumed by chrome://tracing and Perfetto (one
// row per core, one slice per execution segment, frequency attached as
// an argument), and a per-segment CSV. Sweep results are exported by
// experiments.WriteCSV.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/schedule"
)

// chromeEvent is one trace-event record ("X" complete events).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeMeta names processes/threads in the viewer.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteChrome serializes the schedule as a Chrome trace. One trace "pid"
// represents the processor; each core is a "tid" row. Times are scaled by
// usPerUnit microseconds per schedule time unit (pass 1 when units are
// already microseconds; 1e6 for seconds).
func WriteChrome(w io.Writer, s *schedule.Schedule, usPerUnit float64) error {
	if usPerUnit <= 0 {
		return fmt.Errorf("trace: usPerUnit %g must be positive", usPerUnit)
	}
	var records []any
	records = append(records, chromeMeta{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]string{"name": "multi-core DVFS processor"},
	})
	for c := 0; c < s.Cores; c++ {
		records = append(records, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: c,
			Args: map[string]string{"name": fmt.Sprintf("core %d", c)},
		})
	}
	segs := append([]schedule.Segment(nil), s.Segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
	for _, seg := range segs {
		records = append(records, chromeEvent{
			Name: fmt.Sprintf("τ%d", seg.Task),
			Cat:  "exec",
			Ph:   "X",
			Ts:   seg.Start * usPerUnit,
			Dur:  seg.Duration() * usPerUnit,
			Pid:  1,
			Tid:  seg.Core,
			Args: map[string]string{
				"frequency": strconv.FormatFloat(seg.Frequency, 'g', 6, 64),
				"work":      strconv.FormatFloat(seg.Work(), 'g', 6, 64),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": records})
}

// WriteScheduleCSV serializes a schedule's segments as CSV rows
// (task, core, start, end, frequency, work).
func WriteScheduleCSV(w io.Writer, s *schedule.Schedule) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"task", "core", "start", "end", "frequency", "work"}); err != nil {
		return err
	}
	segs := append([]schedule.Segment(nil), s.Segments...)
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Core != segs[j].Core {
			return segs[i].Core < segs[j].Core
		}
		return segs[i].Start < segs[j].Start
	})
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	for _, seg := range segs {
		if err := cw.Write([]string{
			strconv.Itoa(seg.Task), strconv.Itoa(seg.Core),
			f(seg.Start), f(seg.End), f(seg.Frequency), f(seg.Work()),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

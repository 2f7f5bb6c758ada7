package sim

// The reference oracle of the differential test: Run as it was before
// the sorted sweep, with its events in a container/heap priority queue
// ordered by (time, ends before starts) and ties otherwise unspecified.
// It is kept unchanged apart from its names, so the production sweep is
// checked against an independent implementation.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/power"
	"repro/internal/schedule"
)

// eventKind orders simultaneous events: ends before starts, so
// back-to-back segments on one core do not report a spurious conflict.
type eventKind int

const (
	evEnd eventKind = iota
	evStart
)

type eventQueue []eventNode

type eventNode struct {
	t    float64
	kind eventKind
	seg  schedule.Segment
}

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].kind < q[j].kind
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(eventNode)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func referenceRun(s *schedule.Schedule, pm power.Model) (*Report, error) {
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	n := len(s.Tasks)
	rep := &Report{
		CoreBusy:    make([]float64, s.Cores),
		Utilization: make([]float64, s.Cores),
		Completion:  make([]float64, n),
	}
	for i := range rep.Completion {
		rep.Completion[i] = math.NaN()
	}
	if len(s.Segments) == 0 {
		for _, tk := range s.Tasks {
			rep.Violations = append(rep.Violations, fmt.Sprintf("task %d never executed", tk.ID))
		}
		return rep, nil
	}

	q := make(eventQueue, 0, 2*len(s.Segments))
	for _, seg := range s.Segments {
		if seg.Core < 0 || seg.Core >= s.Cores {
			rep.Violations = append(rep.Violations, fmt.Sprintf("segment %v on unknown core", seg))
			continue
		}
		if seg.Task < 0 || seg.Task >= n {
			rep.Violations = append(rep.Violations, fmt.Sprintf("segment %v for unknown task", seg))
			continue
		}
		q = append(q, eventNode{t: seg.Start, kind: evStart, seg: seg})
		q = append(q, eventNode{t: seg.End, kind: evEnd, seg: seg})
	}
	heap.Init(&q)

	const eps = 1e-9
	coreTask := make([]int, s.Cores) // -1 when idle
	coreEnd := make([]float64, s.Cores)
	coreEverUsed := make([]bool, s.Cores)
	for k := range coreTask {
		coreTask[k] = -1
	}
	taskOnCore := make([]int, n) // -1 when not running
	taskEnd := make([]float64, n)
	lastCore := make([]int, n) // core of the previous execution, -1 initially
	everRan := make([]bool, n)
	remaining := make([]float64, n)
	for i, tk := range s.Tasks {
		remaining[i] = tk.Work
		taskOnCore[i] = -1
		lastCore[i] = -1
	}

	start := s.Segments[0].Start
	end := s.Segments[0].End
	for _, seg := range s.Segments {
		if seg.Start < start {
			start = seg.Start
		}
		if seg.End > end {
			end = seg.End
		}
	}
	rep.Horizon = end - start

	for q.Len() > 0 {
		ev := heap.Pop(&q).(eventNode)
		seg := ev.seg
		id := seg.Task
		switch ev.kind {
		case evStart:
			tk := s.Tasks[id]
			if seg.Start < tk.Release-eps {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%v starts before release %g", seg, tk.Release))
			}
			if seg.End > tk.Deadline+eps {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%v runs past deadline %g", seg, tk.Deadline))
			}
			if occ := coreTask[seg.Core]; occ != -1 {
				// Tolerate sub-epsilon overhang from float arithmetic: the
				// occupying segment's own end event is about to fire.
				if coreEnd[seg.Core] <= seg.Start+eps {
					coreTask[seg.Core] = -1
				} else {
					rep.Violations = append(rep.Violations, fmt.Sprintf("core %d busy with task %d when %v starts", seg.Core, occ, seg))
				}
			}
			if on := taskOnCore[id]; on != -1 {
				if taskEnd[id] <= seg.Start+eps {
					taskOnCore[id] = -1
				} else {
					rep.Violations = append(rep.Violations, fmt.Sprintf("task %d already running on core %d when %v starts", id, on, seg))
				}
			}
			// A start on a core whose previous segment ended strictly
			// earlier (or that never ran) is a sleep→active transition.
			if coreEnd[seg.Core] == 0 && !coreEverUsed[seg.Core] {
				rep.Wakeups++
				coreEverUsed[seg.Core] = true
			} else if seg.Start > coreEnd[seg.Core]+eps {
				rep.Wakeups++
			}
			coreTask[seg.Core] = id
			coreEnd[seg.Core] = seg.End
			taskOnCore[id] = seg.Core
			taskEnd[id] = seg.End
			if everRan[id] && lastCore[id] != seg.Core {
				rep.Migrations++
			}
			everRan[id] = true
			lastCore[id] = seg.Core
		case evEnd:
			if coreTask[seg.Core] == id {
				coreTask[seg.Core] = -1
			}
			if taskOnCore[id] == seg.Core {
				taskOnCore[id] = -1
			}
			dur := seg.Duration()
			rep.CoreBusy[seg.Core] += dur
			rep.Energy += pm.EnergyForTime(dur, seg.Frequency)
			before := remaining[id]
			remaining[id] -= seg.Work()
			if before > eps && remaining[id] <= eps && math.IsNaN(rep.Completion[id]) {
				// Completion lands inside this segment; interpolate.
				over := -remaining[id]
				frac := 0.0
				if seg.Work() > 0 {
					frac = over / seg.Work()
				}
				rep.Completion[id] = seg.End - frac*dur
			}
			if remaining[id] > eps {
				rep.Preemptions++
			}
		}
	}

	for i, tk := range s.Tasks {
		if remaining[i] > 1e-6*math.Max(1, tk.Work) {
			rep.Violations = append(rep.Violations, fmt.Sprintf("task %d finished with %g work remaining", i, remaining[i]))
		}
		if c := rep.Completion[i]; !math.IsNaN(c) && c > tk.Deadline+1e-6 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("task %d completed at %g after deadline %g", i, c, tk.Deadline))
		}
	}
	if rep.Horizon > 0 {
		for k := range rep.CoreBusy {
			rep.Utilization[k] = rep.CoreBusy[k] / rep.Horizon
		}
	}
	sort.Strings(rep.Violations)
	return rep, nil
}

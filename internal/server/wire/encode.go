package wire

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendSchedule appends the JSON encoding of r and a newline to dst
// and returns the extended buffer. The bytes are exactly those a
// json.Encoder with SetEscapeHTML(false) writes for r: the same field
// order, omitempty and null rules, string escaping, and float format
// ('f' for magnitudes in [1e-6, 1e21), shortest 'e' otherwise, with a
// one-digit negative exponent written e-7, not e-07). A NaN or infinite
// float is an error, as it is for encoding/json; on error dst is
// returned unchanged.
//
// It is a hand-written encoder rather than a json.Marshaler because
// encoding/json re-compacts a Marshaler's output, which alone costs
// about as much as reflection does on a 600 KB schedule.
func AppendSchedule(dst []byte, r *ScheduleResponse) ([]byte, error) {
	e := encoder{buf: slices.Grow(dst, scheduleSize(r))}
	e.schedule(r)
	return e.finish(dst)
}

// AppendBatch appends the JSON encoding of r and a newline to dst,
// byte-identical to json.Encoder with SetEscapeHTML(false), encoding
// each item's response exactly as AppendSchedule does.
func AppendBatch(dst []byte, r *BatchResponse) ([]byte, error) {
	size := 64
	for i := range r.Items {
		size += 96 + len(r.Items[i].Error)
		if r.Items[i].Response != nil {
			size += scheduleSize(r.Items[i].Response)
		}
	}
	e := encoder{buf: slices.Grow(dst, size)}
	e.batch(r)
	return e.finish(dst)
}

// scheduleSize estimates the encoded size of r, so the buffer is grown
// once up front; an underestimate only costs a regrowth.
func scheduleSize(r *ScheduleResponse) int {
	if r == nil {
		return 8
	}
	n := 256 + len(r.Algorithm) + len(r.FallbackAlgorithm) + 112*len(r.Segments)
	if r.Sim != nil {
		n += 128 + 25*(len(r.Sim.CoreBusy)+len(r.Sim.Utilization))
		for _, v := range r.Sim.Violations {
			n += len(v) + 3
		}
	}
	return n
}

// memoBits sizes the float memo: 1<<memoBits slots, 16 bytes each,
// whatever the size of the response.
const memoBits = 12

// memoSlot remembers where one float's formatting already sits in the
// output buffer. n == 0 marks an empty slot (no float formats to zero
// bytes).
type memoSlot struct {
	bits uint64
	off  uint32
	n    uint32
}

// encoder is the state of one Append call. Segment floats repeat
// heavily — every task runs at one frequency, and segments are cut at
// shared subinterval and wrap points, so an n=100 schedule holds about
// 18k floats but under 3k distinct values — so each is looked up in a
// direct-mapped memo keyed by its full bit pattern before it is
// formatted, and a hit copies the earlier formatting. A collision only
// evicts the older entry, so the output never depends on the memo.
type encoder struct {
	buf  []byte
	err  error
	memo [1 << memoBits]memoSlot
}

// finish appends the trailing newline Encode writes and returns the
// buffer, or dst unchanged and the first error.
func (e *encoder) finish(dst []byte) ([]byte, error) {
	if e.err != nil {
		return dst, e.err
	}
	return append(e.buf, '\n'), nil
}

func (e *encoder) schedule(r *ScheduleResponse) {
	if r == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '{')
	if r.Version != 0 {
		e.buf = append(e.buf, `"version":`...)
		e.buf = strconv.AppendInt(e.buf, int64(r.Version), 10)
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, `"algorithm":`...)
	e.string(r.Algorithm)
	e.buf = append(e.buf, `,"cores":`...)
	e.buf = strconv.AppendInt(e.buf, int64(r.Cores), 10)
	e.buf = append(e.buf, `,"energy":`...)
	e.float(r.Energy)
	e.buf = append(e.buf, `,"busy_time":`...)
	e.float(r.BusyTime)
	e.buf = append(e.buf, `,"makespan":`...)
	e.float(r.Makespan)
	e.buf = append(e.buf, `,"verified":`...)
	e.buf = strconv.AppendBool(e.buf, r.Verified)
	e.buf = append(e.buf, `,"cached":`...)
	e.buf = strconv.AppendBool(e.buf, r.Cached)
	e.buf = append(e.buf, `,"segments":`...)
	if r.Segments == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range r.Segments {
			s := &r.Segments[i]
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"task":`...)
			e.buf = strconv.AppendInt(e.buf, int64(s.Task), 10)
			e.buf = append(e.buf, `,"core":`...)
			e.buf = strconv.AppendInt(e.buf, int64(s.Core), 10)
			e.buf = append(e.buf, `,"start":`...)
			e.memoFloat(s.Start)
			e.buf = append(e.buf, `,"end":`...)
			e.memoFloat(s.End)
			e.buf = append(e.buf, `,"frequency":`...)
			e.memoFloat(s.Frequency)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, `,"elapsed_ms":`...)
	e.float(r.ElapsedMS)
	if r.Degraded {
		e.buf = append(e.buf, `,"degraded":true`...)
	}
	if r.FallbackAlgorithm != "" {
		e.buf = append(e.buf, `,"fallback_algorithm":`...)
		e.string(r.FallbackAlgorithm)
	}
	if r.Sim != nil {
		e.buf = append(e.buf, `,"sim":`...)
		e.sim(r.Sim)
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) sim(r *SimReportJSON) {
	e.buf = append(e.buf, `{"energy":`...)
	e.float(r.Energy)
	e.buf = append(e.buf, `,"horizon":`...)
	e.float(r.Horizon)
	e.buf = append(e.buf, `,"core_busy":`...)
	e.floats(r.CoreBusy)
	e.buf = append(e.buf, `,"utilization":`...)
	e.floats(r.Utilization)
	e.buf = append(e.buf, `,"preemptions":`...)
	e.buf = strconv.AppendInt(e.buf, int64(r.Preemptions), 10)
	e.buf = append(e.buf, `,"migrations":`...)
	e.buf = strconv.AppendInt(e.buf, int64(r.Migrations), 10)
	e.buf = append(e.buf, `,"wakeups":`...)
	e.buf = strconv.AppendInt(e.buf, int64(r.Wakeups), 10)
	if len(r.Violations) > 0 {
		e.buf = append(e.buf, `,"violations":[`...)
		for i, v := range r.Violations {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.string(v)
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) batch(r *BatchResponse) {
	e.buf = append(e.buf, '{')
	if r.Version != 0 {
		e.buf = append(e.buf, `"version":`...)
		e.buf = strconv.AppendInt(e.buf, int64(r.Version), 10)
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, `"items":`...)
	if r.Items == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range r.Items {
			it := &r.Items[i]
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"index":`...)
			e.buf = strconv.AppendInt(e.buf, int64(it.Index), 10)
			if it.Response != nil {
				e.buf = append(e.buf, `,"response":`...)
				e.schedule(it.Response)
			}
			if it.Error != "" {
				e.buf = append(e.buf, `,"error":`...)
				e.string(it.Error)
			}
			if it.Status != 0 {
				e.buf = append(e.buf, `,"status":`...)
				e.buf = strconv.AppendInt(e.buf, int64(it.Status), 10)
			}
			if it.Code != "" {
				e.buf = append(e.buf, `,"code":`...)
				e.string(string(it.Code))
			}
			if it.Retryable {
				e.buf = append(e.buf, `,"retryable":true`...)
			}
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, `,"elapsed_ms":`...)
	e.float(r.ElapsedMS)
	e.buf = append(e.buf, '}')
}

func (e *encoder) floats(fs []float64) {
	if fs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, f := range fs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.float(f)
	}
	e.buf = append(e.buf, ']')
}

// memoFloat is float through the memo.
func (e *encoder) memoFloat(f float64) {
	bits := math.Float64bits(f)
	s := &e.memo[(bits*0x9E3779B97F4A7C15)>>(64-memoBits)]
	if s.n != 0 && s.bits == bits {
		e.buf = append(e.buf, e.buf[s.off:s.off+s.n]...)
		return
	}
	off := len(e.buf)
	e.float(f)
	if n := len(e.buf) - off; n > 0 && uint64(len(e.buf)) <= math.MaxUint32 {
		*s = memoSlot{bits: bits, off: uint32(off), n: uint32(n)}
	}
}

// float formats f as encoding/json does (its floatEncoder, 64 bits).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = errors.New("wire: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
}

const hexDigits = "0123456789abcdef"

// string quotes s as encoding/json does without HTML escaping: '"',
// '\\' and control bytes are escaped, invalid UTF-8 becomes \ufffd, and
// U+2028 and U+2029 are escaped; everything else is copied.
func (e *encoder) string(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

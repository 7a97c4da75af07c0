package trigger

import (
	"encoding/json"
	"strconv"
	"sync"
	"time"
)

// AppendJSON appends the event's JSON document to dst and returns the
// extended slice. The bytes are exactly json.Marshal(ev)'s: the same
// field order, the same omitempty rules, the same escaping. So a
// payload it stores decodes, and re-encodes, like one encoding/json
// wrote. The common event is encoded without reflection. An event
// holding a string that needs escaping (a byte below 0x20 or at 0x80
// and above, or one of " \ < > &), or a Time that RFC 3339 cannot
// express, is handed to encoding/json, whose error is returned.
func (ev *Event) AppendJSON(dst []byte) ([]byte, error) {
	if !ev.plainJSON() {
		// *ev, not ev: boxing a copy keeps the pointer from escaping,
		// so callers' events stay on their stacks.
		b, err := json.Marshal(*ev)
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	if ev.Offset != 0 {
		dst = strconv.AppendInt(append(dst, `,"offset":`...), ev.Offset, 10)
	}
	dst = appendQuoted(append(dst, `,"type":`...), string(ev.Type))
	dst = appendQuoted(append(dst, `,"class":`...), ev.Class)
	dst = appendQuoted(append(dst, `,"object":`...), ev.Object)
	if ev.Function != "" {
		dst = appendQuoted(append(dst, `,"function":`...), ev.Function)
	}
	if len(ev.Keys) > 0 {
		dst = append(dst, `,"keys":[`...)
		for i, k := range ev.Keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendQuoted(dst, k)
		}
		dst = append(dst, ']')
	}
	if ev.Invocation != "" {
		dst = appendQuoted(append(dst, `,"invocation":`...), ev.Invocation)
	}
	if ev.Error != "" {
		dst = appendQuoted(append(dst, `,"error":`...), ev.Error)
	}
	if ev.Depth != 0 {
		dst = strconv.AppendInt(append(dst, `,"depth":`...), int64(ev.Depth), 10)
	}
	if ev.Trace != "" {
		dst = appendQuoted(append(dst, `,"trace":`...), ev.Trace)
	}
	// time.Time.MarshalJSON is this format, quoted.
	dst = ev.Time.AppendFormat(append(dst, `,"time":"`...), time.RFC3339Nano)
	return append(dst, `"}`...), nil
}

// plainJSON reports whether encoding/json would write every string of
// the event verbatim and accept its Time: a four-digit year and a zone
// offset under 24 hours (time.Time.MarshalJSON fails otherwise).
func (ev *Event) plainJSON() bool {
	if y := ev.Time.Year(); y < 0 || y > 9999 {
		return false
	}
	if _, off := ev.Time.Zone(); off <= -24*60*60 || off >= 24*60*60 {
		return false
	}
	for _, s := range [...]string{string(ev.Type), ev.Class, ev.Object, ev.Function, ev.Invocation, ev.Error, ev.Trace} {
		if !plainString(s) {
			return false
		}
	}
	for _, k := range ev.Keys {
		if !plainString(k) {
			return false
		}
	}
	return true
}

// plainString reports whether encoding/json (with its default HTML
// escaping) writes s between quotes byte for byte.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// encodeBufs recycles encodeEvent's scratch. Buffers that grew past
// maxPooledEncodeBuf (an event with a huge error message) are left to
// the collector rather than pinned in the pool.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledEncodeBuf = 64 << 10

// encodeEvent returns ev's JSON (see AppendJSON) as an exact-size
// payload: it encodes into pooled scratch and copies out, so the
// payload a log or async record keeps holds no spare capacity.
func encodeEvent(ev *Event) (json.RawMessage, error) {
	bp := encodeBufs.Get().(*[]byte)
	b, err := ev.AppendJSON((*bp)[:0])
	var payload json.RawMessage
	if err == nil {
		payload = make(json.RawMessage, len(b))
		copy(payload, b)
	}
	if cap(b) <= maxPooledEncodeBuf {
		*bp = b[:0]
		encodeBufs.Put(bp)
	}
	return payload, err
}

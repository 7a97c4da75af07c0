package trigger

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// checkAppendJSON fails unless ev.AppendJSON, appending after a
// prefix, writes exactly json.Marshal(ev)'s bytes, or fails exactly
// when json.Marshal does and leaves the prefix alone.
func checkAppendJSON(t *testing.T, ev Event) {
	t.Helper()
	want, wantErr := json.Marshal(ev)
	prefix := []byte("prefix:")
	got, err := ev.AppendJSON(append([]byte(nil), prefix...))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error = %v, json.Marshal error = %v (event %#v)", err, wantErr, ev)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON clobbered its dst prefix: %q", got)
	}
	if wantErr != nil {
		if len(got) != len(prefix) {
			t.Fatalf("AppendJSON appended %q on error", got[len(prefix):])
		}
		return
	}
	if got := got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON diverges from json.Marshal:\n got  %s\n want %s", got, want)
	}
}

func TestEventAppendJSONMatchesMarshal(t *testing.T) {
	at := time.Date(2026, 10, 18, 1, 2, 3, 456789000, time.UTC)
	full := Event{
		Seq: 42, Offset: 7, Type: StateChanged, Class: "Order", Object: "Order-0001",
		Function: "place", Keys: []string{"placed", "status"}, Invocation: "inv-9",
		Error: "boom", Depth: 3, Trace: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		Time: at,
	}
	with := func(f func(*Event)) Event {
		ev := full
		ev.Keys = append([]string(nil), full.Keys...)
		f(&ev)
		return ev
	}
	cases := []struct {
		name string
		ev   Event
	}{
		{"zero", Event{}},
		{"every field", full},
		{"omitempty fields empty", Event{Seq: 1, Type: InvocationCompleted, Class: "A", Object: "o", Time: at}},
		{"empty non-nil keys", with(func(ev *Event) { ev.Keys = []string{} })},
		{"one empty key", with(func(ev *Event) { ev.Keys = []string{""} })},
		{"negative offset and depth", with(func(ev *Event) { ev.Offset, ev.Depth = -5, -1 })},
		{"max seq", with(func(ev *Event) { ev.Seq = ^uint64(0) })},
		{"whole-second time", with(func(ev *Event) { ev.Time = at.Truncate(time.Second) })},
		{"zone offset", with(func(ev *Event) { ev.Time = at.In(time.FixedZone("X", -(5*3600 + 30*60 + 7))) })},
		{"zone offset 23:59", with(func(ev *Event) { ev.Time = at.In(time.FixedZone("X", 24*3600-1)) })},
		{"zone offset 24h", with(func(ev *Event) { ev.Time = at.In(time.FixedZone("X", 24*3600)) })},
		{"zone offset -24h", with(func(ev *Event) { ev.Time = at.In(time.FixedZone("X", -24*3600)) })},
		{"year 0", with(func(ev *Event) { ev.Time = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC) })},
		{"year 9999", with(func(ev *Event) { ev.Time = time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC) })},
		{"year 10000", with(func(ev *Event) { ev.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) })},
		{"year -1", with(func(ev *Event) { ev.Time = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) })},
		{"html characters", with(func(ev *Event) { ev.Error = `<a href="x">&</a>` })},
		{"quote and backslash", with(func(ev *Event) { ev.Object = `o"\` })},
		{"control characters", with(func(ev *Event) { ev.Keys = []string{"a\tb", "\x00", "\x1f\n"} })},
		{"non-ASCII", with(func(ev *Event) { ev.Class = "Größe-ключ-鍵" })},
		{"line separators", with(func(ev *Event) { ev.Function = "a\u2028b\u2029c" })},
		{"invalid UTF-8", with(func(ev *Event) { ev.Invocation = "bad\xff\xfe" })},
		{"DEL byte", with(func(ev *Event) { ev.Trace = "x\x7fy" })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAppendJSON(t, c.ev) })
	}
}

// FuzzEventJSON asserts AppendJSON is byte-identical to json.Marshal
// over arbitrary strings, key lists, depths, offsets and times. keys
// holds the key list with its first byte as the separator ("" is no
// keys); the time is Unix(sec, nsec) in a fixed zone of zone seconds.
// The seed corpus lives in testdata/fuzz/FuzzEventJSON.
func FuzzEventJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq uint64, offset int64, typ, class, object, function, keys, invocation, errMsg, tr string, depth int, sec, nsec int64, zone int) {
		ev := Event{
			Seq: seq, Offset: offset, Type: EventType(typ), Class: class, Object: object,
			Function: function, Invocation: invocation, Error: errMsg, Depth: depth, Trace: tr,
			Time: time.Unix(sec, nsec).In(time.FixedZone("", zone)),
		}
		if keys != "" {
			ev.Keys = strings.Split(keys[1:], keys[:1])
		}
		checkAppendJSON(t, ev)
	})
}

package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/locdict"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	type payload struct {
		A int      `json:"a"`
		B []string `json:"b"`
	}
	in := payload{A: 7, B: []string{"x", "y"}}
	snap, err := Encode(1234, in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out payload
	wm, err := Decode(snap, &out)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if wm != 1234 {
		t.Fatalf("watermark = %d, want 1234", wm)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("payload round trip: got %+v want %+v", out, in)
	}
	// Byte stability: re-encoding the decoded payload reproduces the
	// snapshot exactly.
	snap2, err := Encode(wm, out)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("snapshot not byte-stable:\n%s\nvs\n%s", snap, snap2)
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	snap, err := Encode(0, map[string]int{"a": 1})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var env map[string]any
	if err := json.Unmarshal(snap, &env); err != nil {
		t.Fatalf("unmarshal envelope: %v", err)
	}
	env["version"] = Version + 1
	tampered, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("marshal tampered: %v", err)
	}
	var dst map[string]int
	if _, err := Decode(tampered, &dst); err == nil {
		t.Fatal("Decode accepted a future version")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version error %q does not mention version", err)
	}

	env["version"] = 0
	tampered, _ = json.Marshal(env)
	if _, err := Decode(tampered, &dst); err == nil {
		t.Fatal("Decode accepted version 0")
	}
}

func TestDecodeRejectsWrongFormat(t *testing.T) {
	snap, _ := Encode(0, map[string]int{"a": 1})
	tampered := bytes.Replace(snap, []byte(Format), []byte("some-other-format!!"), 1)
	var dst map[string]int
	if _, err := Decode(tampered, &dst); err == nil {
		t.Fatal("Decode accepted a wrong format magic")
	}
}

func TestDecodeMalformedInputErrors(t *testing.T) {
	snap, _ := Encode(0, map[string]int{"a": 1})
	cases := [][]byte{
		nil,
		[]byte("not json"),
		snap[:len(snap)/2],
		[]byte(`{"format":"` + Format + `","version":1,"watermark_ns":0,"payload":"not-an-object"}`),
	}
	for i, data := range cases {
		var dst map[string]int
		if _, err := Decode(data, &dst); err == nil {
			t.Errorf("case %d: Decode accepted malformed input", i)
		}
	}
}

// TestDecodeErrorClasses: every refusal wraps the class a caller acts on.
// A format or version this build cannot read is judged before the payload,
// so a newer build's snapshot is never reported as damage.
func TestDecodeErrorClasses(t *testing.T) {
	doc := func(format string, version, payload string) []byte {
		d := `{"format":` + format + `,"version":` + version + `,"watermark_ns":5`
		if payload != "" {
			d += `,"payload":` + payload
		}
		return []byte(d + "}")
	}
	ok := `"` + Format + `"`
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"syntax error", doc(ok, "1", `{"a":1`), ErrCorrupt},
		{"truncated", doc(ok, "1", `{"a":1}`)[:20], ErrCorrupt},
		{"wrong format", doc(`"other"`, "1", `{"a":1}`), ErrUnsupportedVersion},
		{"newer version", doc(ok, "3", `{"a":1}`), ErrUnsupportedVersion},
		{"newer version, payload of another shape", doc(ok, "3", `["x"]`), ErrUnsupportedVersion},
		{"version of the wrong type", doc(ok, `"2"`, `{"a":1}`), ErrCorrupt},
		{"payload of the wrong type", doc(ok, "1", `{"a":"x"}`), ErrCorrupt},
		{"payload missing", doc(ok, "1", ""), ErrCorrupt},
		{"payload null", doc(ok, "1", "null"), ErrCorrupt},
	} {
		var dst map[string]int
		if _, err := Decode(c.data, &dst); !errors.Is(err, c.want) {
			t.Errorf("%s: Decode = %v, want %v", c.name, err, c.want)
		}
	}
	var dst map[string]int
	if wm, err := Decode(doc(ok, "1", `{"a":1}`), &dst); err != nil || wm != 5 || dst["a"] != 1 {
		t.Fatalf("well-formed document: %v, %d, %v", dst, wm, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := WriteFile(path, []byte("first")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := WriteFile(path, []byte("second")); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "second" {
		t.Fatalf("read %q, want %q", got, "second")
	}
	// No temporary droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.ckpt" {
		t.Fatalf("directory not clean after writes: %v", entries)
	}
}

func TestTimeNsSentinel(t *testing.T) {
	if TimeNs(time.Time{}) != 0 {
		t.Fatal("zero time must serialize to 0")
	}
	if !NsTime(0).IsZero() {
		t.Fatal("0 must deserialize to the zero time")
	}
	now := time.Date(2010, 7, 20, 12, 34, 56, 789, time.UTC)
	back := NsTime(TimeNs(now))
	if !back.Equal(now) || back != now {
		t.Fatalf("time round trip: got %v want %v", back, now)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	enc := Event{
		ID:      42,
		StartNs: TimeNs(time.Date(2010, 7, 20, 1, 2, 3, 0, time.UTC)),
		EndNs:   TimeNs(time.Date(2010, 7, 20, 1, 5, 0, 0, time.UTC)),
		Routers: []string{"cr1.alb", "cr2.alb"},
		Locations: []locdict.Location{
			{Router: "cr1.alb", Level: locdict.LevelInterface, Name: "ge-1/0/0"},
		},
		Templates:   []int{3, 9},
		MessageSeqs: []int{100, 101, 107},
		RawIndexes:  []uint64{1000, 1001, 1007},
		Label:       "LINK/LINEPROTO updown",
		Score:       0.4375,
	}
	// JSON is how it travels; the event.Event conversions are exercised by
	// the core round-trip tests.
	raw, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var dec Event
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, enc) {
		t.Fatalf("event JSON round trip:\ngot  %+v\nwant %+v", dec, enc)
	}
}

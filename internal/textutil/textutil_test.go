package textutil

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("  Line protocol  on Interface Serial1/0,  changed ")
	want := []string{"Line", "protocol", "on", "Interface", "Serial1/0,", "changed"}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if toks := Tokenize("   "); len(toks) != 0 {
		t.Fatalf("whitespace-only input produced tokens: %v", toks)
	}
}

func TestTrimWord(t *testing.T) {
	cases := []struct {
		in, core, pre, suf string
	}{
		{"Serial1/0.10/20:0,", "Serial1/0.10/20:0", "", ","},
		{"(Total/Intr):", "Total/Intr", "(", "):"},
		{"plain", "plain", "", ""},
		{"...", "", "...", ""},
		{"", "", "", ""},
		{"\"quoted\"", "quoted", "\"", "\""},
	}
	for _, c := range cases {
		core, pre, suf := TrimWord(c.in)
		if core != c.core || pre != c.pre || suf != c.suf {
			t.Errorf("TrimWord(%q) = (%q, %q, %q), want (%q, %q, %q)",
				c.in, core, pre, suf, c.core, c.pre, c.suf)
		}
	}
}

// Property: TrimWord pieces always reassemble to the input.
func TestTrimWordReassembles(t *testing.T) {
	f := func(s string) bool {
		core, pre, suf := TrimWord(s)
		return pre+core+suf == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// classifyCases is TestClassify's table; FuzzClassify seeds from it.
var classifyCases = []struct {
	in   string
	want TokenClass
}{
	{"Interface", ClassWord},
	{"down", ClassWord},
	{"192.168.32.42", ClassIPv4},
	{"10.1.2.1/30", ClassIPv4},
	{"10.1.2.1:179", ClassIPv4},
	{"1.2.3", ClassWord},     // three octets is not an IP
	{"1.2.3.4.5", ClassWord}, // five octets is not an IP
	{"1000:1001", ClassVRF},
	{"0x1A2B", ClassHex},
	{"0xZZ", ClassWord},
	{"Serial1/0.10/10:0", ClassInterface},
	{"GigabitEthernet0/1", ClassInterface},
	{"Multilink7", ClassInterface},
	{"Loopback0", ClassInterface},
	{"Serial", ClassWord}, // stem without digits
	{"1/1/1", ClassPortPath},
	{"2/0", ClassPortPath},
	{"2/0.10/2:0", ClassPortPath},
	{"a/b", ClassWord},
	{"95%", ClassNumber},
	{"95%/1%", ClassWord}, // compound measurement, not a simple number
	{"3.2s", ClassNumber},
	{"42", ClassNumber},
	{"42C", ClassNumber},
	{"", ClassWord},
	{"state", ClassWord},
}

func TestClassify(t *testing.T) {
	for _, c := range classifyCases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMaskWordPreservesPunctuation(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Serial1/0.10/20:0,", "*,"},
		{"192.168.32.42", "*"},
		{"down", "down"},
		{"state,", "state,"},
		// Numbers and measurements are NOT masked: frequency analysis
		// decides whether they are constants or variables.
		{"(95%)", "(95%)"},
		{"199", "199"},
		{"1,", "1,"},
		{"1000:1001", "*"},
		{"0x1A2B", "*"},
	}
	for _, c := range cases {
		if got := MaskWord(c.in); got != c.want {
			t.Errorf("MaskWord(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMaskTokensTable4(t *testing.T) {
	// The paper's Table 3 -> Table 4 example: masking neighbor IP and VRF id
	// leaves five distinct structures; check one of them.
	in := Tokenize("neighbor 192.168.32.42 vpn vrf 1000:1001 Up")
	got := strings.Join(MaskTokens(in), " ")
	want := "neighbor * vpn vrf * Up"
	if got != want {
		t.Fatalf("masked = %q, want %q", got, want)
	}
}

func TestMaskTokensFreshSlice(t *testing.T) {
	in := []string{"192.168.0.1"}
	out := MaskTokens(in)
	if in[0] != "192.168.0.1" {
		t.Fatal("MaskTokens mutated its input")
	}
	if out[0] != "*" {
		t.Fatalf("out[0] = %q, want *", out[0])
	}
}

func TestInterfaceStem(t *testing.T) {
	stem, path, ok := InterfaceStem("Serial1/0.10/10:0")
	if !ok || stem != "Serial" || path != "1/0.10/10:0" {
		t.Fatalf("InterfaceStem = (%q, %q, %v)", stem, path, ok)
	}
	if _, _, ok := InterfaceStem("NotAnInterface5"); ok {
		t.Fatal("unexpected interface match")
	}
	if _, _, ok := InterfaceStem("Serial"); ok {
		t.Fatal("bare stem should not match")
	}
	stem, path, ok = InterfaceStem("gigabitethernet0/1")
	if !ok || stem != "GigabitEthernet" || path != "0/1" {
		t.Fatalf("case-insensitive stem failed: (%q, %q, %v)", stem, path, ok)
	}
}

// Property: masking is idempotent — masking a masked token changes nothing.
func TestMaskIdempotent(t *testing.T) {
	words := []string{
		"Interface", "Serial1/0.10/10:0,", "192.168.32.42", "1000:1001",
		"95%", "state", "to", "down", "0x1A2B", "1/1/1",
	}
	once := MaskTokens(words)
	twice := MaskTokens(once)
	for i := range once {
		if once[i] != twice[i] {
			t.Fatalf("masking not idempotent at %q: %q vs %q", words[i], once[i], twice[i])
		}
	}
}

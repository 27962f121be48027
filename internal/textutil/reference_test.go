package textutil

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The references below are the straightforward forms the production code
// must agree with: Classify without the byte-shape gate, running every
// validator in order with its own interface-stem loop; TrimWord over a
// cutset string; and strings.Fields for TokenizeInto. FuzzClassify and the
// corpus test hold the production forms to them token for token.

// classifyChain is the reference Classify.
func classifyChain(w string) TokenClass {
	if w == "" {
		return ClassWord
	}
	if isIPv4Like(w) {
		return ClassIPv4
	}
	if isVRF(w) {
		return ClassVRF
	}
	if isHex(w) {
		return ClassHex
	}
	if isInterfaceNameLoop(w) {
		return ClassInterface
	}
	if isPortPath(w) {
		return ClassPortPath
	}
	if isNumberLike(w) {
		return ClassNumber
	}
	return ClassWord
}

// isInterfaceNameLoop accepts a known interface stem followed by a
// digit-leading path, e.g. Serial1/0.10/10:0, GigabitEthernet0/1, Multilink7.
func isInterfaceNameLoop(s string) bool {
	for _, pre := range interfacePrefixes {
		if len(s) > len(pre) && strings.EqualFold(s[:len(pre)], pre) {
			rest := s[len(pre):]
			if rest[0] >= '0' && rest[0] <= '9' && (isPortPath(rest) || isPathSegment(rest)) {
				return true
			}
		}
	}
	return false
}

// trimWordCutset is the reference TrimWord.
func trimWordCutset(w string) (core, prefix, suffix string) {
	const cutset = ",.:;()[]{}\"'"
	start := 0
	for start < len(w) && strings.ContainsRune(cutset, rune(w[start])) {
		start++
	}
	end := len(w)
	for end > start && strings.ContainsRune(cutset, rune(w[end-1])) {
		end--
	}
	return w[start:end], w[:start], w[end:]
}

// diffToken compares TrimWord and Classify on tok, and Classify on its
// trimmed core, with the references; it returns "" when they agree.
func diffToken(tok string) string {
	core, pre, suf := TrimWord(tok)
	rc, rp, rs := trimWordCutset(tok)
	if core != rc || pre != rp || suf != rs {
		return fmt.Sprintf("TrimWord(%q) = (%q, %q, %q), reference (%q, %q, %q)", tok, core, pre, suf, rc, rp, rs)
	}
	for _, w := range []string{tok, core} {
		if got, want := Classify(w), classifyChain(w); got != want {
			return fmt.Sprintf("Classify(%q) = %v, reference %v", w, got, want)
		}
	}
	return ""
}

// diffTokenize compares TokenizeInto(s, buf) with strings.Fields(s); it
// returns "" when they agree. When buf's capacity suffices the result must
// reuse its array.
func diffTokenize(s string, buf []string) string {
	want := strings.Fields(s)
	got := TokenizeInto(s, buf)
	if !slices.Equal(got, want) {
		return fmt.Sprintf("TokenizeInto(%q) = %q, strings.Fields %q", s, got, want)
	}
	if len(got) > 0 && cap(buf) >= len(got) && &got[0] != &buf[:1][0] {
		return fmt.Sprintf("TokenizeInto(%q) allocated with a buffer of capacity %d for %d tokens", s, cap(buf), len(got))
	}
	return ""
}

// FuzzClassify holds Classify, TrimWord and TokenizeInto to their
// references on arbitrary input, each token of it, and a buffer reused
// across calls.
func FuzzClassify(f *testing.F) {
	for _, c := range classifyCases {
		f.Add(c.in)
	}
	for _, s := range []string{
		"1.2.3.4(5678", "0x", "Serial1/0.10/10:0,", "95%",
		"list 199 denied tcp 10.1.2.3(1234) -> 10.0.0.1(179), 1 packet",
		"Interface\tSerial2/0, changed state to down é",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d := diffToken(s); d != "" {
			t.Fatal(d)
		}
		// nil, a two-slot buffer (too small for most inputs), then a
		// result fed back in, which is large enough, so its array must be
		// reused.
		buf := make([]string, 0, 2)
		for _, b := range [][]string{nil, buf, TokenizeInto(s, buf)} {
			if d := diffTokenize(s, b); d != "" {
				t.Fatal(d)
			}
		}
		for _, tok := range TokenizeInto(s, buf) {
			if d := diffToken(tok); d != "" {
				t.Fatal(d)
			}
		}
	})
}

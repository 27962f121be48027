// Package textutil holds the low-level text machinery shared by the template
// learner and the location parser: whitespace tokenization, classification of
// tokens that look like network locations or other high-variability values,
// and masking of such tokens.
//
// The paper's template learner excludes "words denoting specific locations"
// from signatures. Rather than hard-coding per-vendor formats, this package
// recognizes the small set of syntactic shapes such values take in router
// syslogs (IPv4 addresses, slot/port paths like 1/0/2, interface names like
// Serial1/0.10/10:0, plain numbers, percentages) and replaces them with a
// single mask rune.
package textutil

import (
	"strings"
	"unicode/utf8"
)

// Mask is the token that replaces a high-variability word during template
// learning. It is a single asterisk, as in the paper's Table 4.
const Mask = "*"

// Tokenize splits a message detail into whitespace-separated words. It never
// returns empty tokens; runs of whitespace collapse. Punctuation is kept
// attached to words (router syslogs use trailing commas meaningfully, e.g.
// "Serial1/0.10/20:0," — stripping is the caller's choice via TrimWord).
// A detail with no words yields nil.
func Tokenize(s string) []string {
	// strings.Fields sizes its result exactly, the one allocation a caller
	// that keeps no buffer should pay.
	if f := strings.Fields(s); len(f) > 0 {
		return f
	}
	return nil
}

// TokenizeInto is Tokenize appending into buf[:0], letting hot paths reuse
// one token buffer across messages instead of allocating per call. The
// returned slice aliases buf's array when capacity suffices; tokens are
// substrings of s. Splitting is identical to Tokenize/strings.Fields, in one
// pass over an ASCII detail.
func TokenizeInto(s string, buf []string) []string {
	out := buf[:0]
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			// Rare non-ASCII detail: defer to strings.Fields for exact
			// unicode whitespace semantics.
			return append(out[:0], strings.Fields(s)...)
		}
		if asciiSpace[c] {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// asciiSpace is strings.Fields' ASCII space set.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// TrimWord removes leading and trailing punctuation that routers commonly
// attach to embedded values: commas, periods, colons, parens, brackets and
// quotes. Interior punctuation (as in interface names) is preserved. It
// returns the trimmed word and the trimmed prefix/suffix so callers can
// reassemble the original token.
func TrimWord(w string) (core, prefix, suffix string) {
	start := 0
	for start < len(w) && trimCut[w[start]] {
		start++
	}
	end := len(w)
	for end > start && trimCut[w[end-1]] {
		end--
	}
	return w[start:end], w[:start], w[end:]
}

// trimCut marks the bytes TrimWord strips from either end of a word.
var trimCut = [256]bool{
	',': true, '.': true, ':': true, ';': true, '(': true, ')': true,
	'[': true, ']': true, '{': true, '}': true, '"': true, '\'': true,
}

// TokenClass describes the syntactic shape of a word, used both for masking
// during template learning and for candidate extraction during location
// parsing.
type TokenClass int

const (
	// ClassWord is a plain word with no location-like or numeric shape.
	ClassWord TokenClass = iota
	// ClassIPv4 is a dotted-quad IPv4 address, optionally with a /prefix or
	// :port suffix.
	ClassIPv4
	// ClassPortPath is a slot/port path such as 1/0/2 or 2/0.
	ClassPortPath
	// ClassInterface is a named interface such as Serial1/0.10/10:0,
	// GigabitEthernet0/1 or Multilink3.
	ClassInterface
	// ClassNumber is a bare integer or decimal, optionally with a % or unit
	// suffix commonly seen in measurements (e.g. 95%, 42C).
	ClassNumber
	// ClassVRF is a VRF-style identifier NNN:NNNN.
	ClassVRF
	// ClassHex is a hexadecimal identifier such as 0x1A2B.
	ClassHex
)

// interfacePrefixes are the interface-name stems recognized by Classify.
// They cover the two simulated vendors; matching is case-insensitive on the
// stem and requires a digit to follow.
var interfacePrefixes = []string{
	"Serial", "GigabitEthernet", "TenGigE", "FastEthernet", "Ethernet",
	"POS", "Multilink", "Bundle-Ether", "Tunnel", "Loopback", "Vlan",
	"Port-channel", "SONET", "ATM",
}

// interfaceLeadByte marks bytes (either case) that can start an interface
// stem, so classification rejects most words without running the
// case-insensitive prefix comparisons below.
var interfaceLeadByte [256]bool

func init() {
	for _, pre := range interfacePrefixes {
		interfaceLeadByte[pre[0]] = true
		interfaceLeadByte[pre[0]|0x20] = true
	}
}

// Byte shapes Classify gates its validators on. Every class but ClassWord
// needs a digit, and each validator below needs the byte named beside it, so
// one scan of the word rules out most validators before any of them runs.
const (
	shapeDigit uint8 = 1 << iota
	shapeDot         // isIPv4Like: dotted octets
	shapeColon       // isVRF: NNN:NNNN
	shapeSlash       // isPortPath: two or more segments
)

var byteShape = [256]uint8{
	'0': shapeDigit, '1': shapeDigit, '2': shapeDigit, '3': shapeDigit, '4': shapeDigit,
	'5': shapeDigit, '6': shapeDigit, '7': shapeDigit, '8': shapeDigit, '9': shapeDigit,
	'.': shapeDot, ':': shapeColon, '/': shapeSlash,
}

// Classify reports the TokenClass of a single word (after TrimWord). It is
// deliberately conservative: when in doubt it returns ClassWord, because a
// falsely masked constant word only makes a template slightly less specific,
// whereas an unmasked variable word splits one template into many.
func Classify(w string) TokenClass {
	var shape uint8
	for i := 0; i < len(w); i++ {
		shape |= byteShape[w[i]]
	}
	if shape&shapeDigit == 0 {
		return ClassWord
	}
	if shape&shapeDot != 0 && isIPv4Like(w) {
		return ClassIPv4
	}
	if shape&shapeColon != 0 && isVRF(w) {
		return ClassVRF
	}
	if isHex(w) {
		return ClassHex
	}
	if _, _, ok := InterfaceStem(w); ok {
		return ClassInterface
	}
	if shape&shapeSlash != 0 && isPortPath(w) {
		return ClassPortPath
	}
	if isNumberLike(w) {
		return ClassNumber
	}
	return ClassWord
}

// MaskWord returns the word with location-denoting values (IP addresses,
// interface names, port paths, VRF ids, hex ids) replaced by Mask,
// preserving trimmed punctuation. Plain words — including bare numbers —
// pass through unchanged: constants like "Process 1" or "list 199" must
// survive into templates, while genuinely variable numbers are eliminated
// by the template learner's frequency analysis and pruning (the paper's
// masking likewise only covers "words denoting specific locations").
func MaskWord(w string) string {
	core, pre, suf := TrimWord(w)
	switch Classify(core) {
	case ClassIPv4, ClassInterface, ClassPortPath, ClassVRF, ClassHex:
		return pre + Mask + suf
	default:
		return w
	}
}

// MaskTokens masks every token in place-shape (returns a fresh slice).
func MaskTokens(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = MaskWord(t)
	}
	return out
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// isIPv4Like accepts a.b.c.d with each octet 0-999 (syslogs occasionally log
// malformed addresses; we still want them masked), optionally followed by
// "/len" or ":port". The octets are validated in place — classification runs
// per token on the augment hot path, so it must not allocate.
func isIPv4Like(s string) bool {
	// Strip one :port or /len suffix.
	if i := strings.IndexByte(s, ':'); i >= 0 {
		if !isDigits(s[i+1:]) {
			return false
		}
		s = s[:i]
	} else if i := strings.IndexByte(s, '/'); i >= 0 {
		if !isDigits(s[i+1:]) {
			return false
		}
		s = s[:i]
	}
	octets := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			n := i - start
			if n == 0 || n > 3 || !isDigits(s[start:i]) {
				return false
			}
			octets++
			start = i + 1
		}
	}
	return octets == 4
}

// isVRF accepts NNN:NNNN style route-distinguisher identifiers.
func isVRF(s string) bool {
	i := strings.IndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return false
	}
	return isDigits(s[:i]) && isDigits(s[i+1:])
}

func isHex(s string) bool {
	if !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "0X") {
		return false
	}
	rest := s[2:]
	if rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		ok := c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
		if !ok {
			return false
		}
	}
	return true
}

// isPortPath accepts slot/port paths: two or more slash-separated numeric
// segments, where segments may carry a ".sub" or ":chan" tail (2/0.10/2:0).
// Segments are validated in place (no Split allocation; hot path).
func isPortPath(s string) bool {
	segs := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '/' {
			if !isPathSegment(s[start:i]) {
				return false
			}
			segs++
			start = i + 1
		}
	}
	return segs >= 2
}

// isPathSegment accepts digit runs joined by '.' (sub-interface) and ':'
// (channel) in any order: "12", "0.10", "10:0", "0.10:2", "1:0.100".
func isPathSegment(p string) bool {
	if p == "" {
		return false
	}
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '.' || p[i] == ':' {
			if !isDigits(p[start:i]) {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// isNumberLike accepts integers, decimals, percentages and simple
// number+unit forms (95%, 3.2s, 42C, 71%,). Requires a leading digit.
func isNumberLike(s string) bool {
	if s == "" || s[0] < '0' || s[0] > '9' {
		return false
	}
	seenDot := false
	i := 0
	for i < len(s) {
		c := s[i]
		if c >= '0' && c <= '9' {
			i++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			i++
			continue
		}
		break
	}
	// Whatever remains must be a short unit suffix (letters or %). Two
	// characters covers the units routers emit (%, C, s, ms, dB); longer
	// tails (e.g. "0xZZ"-style identifiers) are not measurements.
	rest := s[i:]
	if len(rest) > 2 {
		return false
	}
	for j := 0; j < len(rest); j++ {
		c := rest[j]
		ok := c == '%' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		if !ok {
			return false
		}
	}
	return true
}

// InterfaceStem returns the interface-name stem (e.g. "Serial") and the
// trailing path (e.g. "1/0.10/10:0") when w is an interface name, with
// ok=false otherwise.
func InterfaceStem(w string) (stem, path string, ok bool) {
	if w == "" || !interfaceLeadByte[w[0]] {
		return "", "", false
	}
	for _, pre := range interfacePrefixes {
		if len(w) > len(pre) && strings.EqualFold(w[:len(pre)], pre) {
			rest := w[len(pre):]
			if rest[0] >= '0' && rest[0] <= '9' && (isPortPath(rest) || isPathSegment(rest)) {
				return pre, rest, true
			}
		}
	}
	return "", "", false
}

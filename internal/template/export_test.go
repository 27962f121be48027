package template

import (
	"sort"

	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/textutil"
)

// LearnPerMessage is the reference Learn is checked against: every message
// tokenized and masked on its own, and each code's sub-type tree handed one
// entry of weight 1 per message, in message order.
func LearnPerMessage(msgs []syslogmsg.Message, opt Options) []Template {
	opt.normalize()
	byCode := make(map[string][]uniqueSeq)
	for i := range msgs {
		ts := textutil.Tokenize(msgs[i].Detail)
		if !opt.NoPreMask {
			ts = textutil.MaskTokens(ts)
		}
		byCode[msgs[i].Code] = append(byCode[msgs[i].Code], uniqueSeq{tokens: ts, count: 1})
	}
	codes := make([]string, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	var out []Template
	for _, c := range codes {
		for _, words := range learnCode(byCode[c], opt) {
			out = append(out, Template{ID: len(out), Code: c, Words: words})
		}
	}
	return out
}

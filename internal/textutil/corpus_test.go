package textutil_test

import (
	"testing"
	"time"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/textutil"
)

// TestReferenceOnCorpora runs every token of both vendors' generated
// corpora through the production tokenizer, trim and classifier and their
// references (FuzzClassify's oracle), with one token buffer reused across
// messages the way the augment path reuses its pooled one.
func TestReferenceOnCorpora(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		ds, err := gen.Generate(gen.Spec{Kind: kind, Routers: 20, Seed: 42, Duration: 48 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		var buf []string
		tokens := 0
		for i := range ds.Messages {
			detail := ds.Messages[i].Detail
			if d := textutil.DiffTokenize(detail, buf); d != "" {
				t.Fatalf("%v message %d: %s", kind, i, d)
			}
			buf = textutil.TokenizeInto(detail, buf)
			for _, tok := range buf {
				if d := textutil.DiffToken(tok); d != "" {
					t.Fatalf("%v message %d: %s", kind, i, d)
				}
			}
			tokens += len(buf)
		}
		t.Logf("%v: %d messages, %d tokens agree", kind, len(ds.Messages), tokens)
	}
}

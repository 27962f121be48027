package textutil

// The reference comparisons, for the corpus test in package textutil_test
// (which imports internal/gen, itself a user of this package).
var (
	DiffToken    = diffToken
	DiffTokenize = diffTokenize
)

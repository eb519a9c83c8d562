package cf

// Test-only views of the command table for the external contract test.

// CmdOrder reports op's pipeline order class; diag reports a diagnostic
// that bypasses the pipeline.
func CmdOrder(op CmdOp) (order OpOrder, diag bool) {
	return cmdTable[op].order, cmdTable[op].diag
}

// Stripe is the pair stripe c's ordering key hashes to.
func (c *BatchCmd) Stripe() int { return c.stripe() }

// PairStripes is the stripe count per pair.
const PairStripes = pairStripes

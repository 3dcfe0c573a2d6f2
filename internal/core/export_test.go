package core

// SetIdleSourceSkip switches runCOP's compute skip and returns a function
// restoring the previous setting. Only for tests, which need the full-scan
// reference run the skip must be indistinguishable from; set it while no
// engine is running.
func SetIdleSourceSkip(on bool) (restore func()) {
	prev := skipIdleSources
	skipIdleSources = on
	return func() { skipIdleSources = prev }
}

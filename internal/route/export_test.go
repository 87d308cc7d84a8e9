package route

// SetGuideRebuildDivisor replaces the guide's full-rebuild cutover for a
// benchmark (0 never rebuilds) and returns a function restoring it.
func SetGuideRebuildDivisor(d int) (restore func()) {
	old := guideRebuildDivisor
	guideRebuildDivisor = d
	return func() { guideRebuildDivisor = old }
}

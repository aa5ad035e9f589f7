// Package sdstray re-declares singledef-guarded names outside their
// home file, plus a forbidden private policy type and constant.
package sdstray

// Anchor duplicates the guarded function.
func Anchor() int { return 2 }

// rateEstimator re-grows a private policy outside internal/runtime.
type rateEstimator struct{}

var _ = rateEstimator{}

// dispatchAllowance re-grows a guessed wall-clock allowance outside
// internal/runtime.
const dispatchAllowance = 1500

package tensor

// EachLeafTier lets external tests (golden_test.go) run under both matmul
// leaf tiers without a production symbol that selects them.
var EachLeafTier = eachLeafTier

package retrieve

import "context"

// Part stands in for one collection of a multi-part search.
type Part struct{}

// SearchParts stands in for the one cascade over several parts.
func SearchParts(ctx context.Context, parts []Part) int {
	_, _ = ctx, parts
	return 0
}

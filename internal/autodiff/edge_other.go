//go:build !amd64

package autodiff

// Without the amd64 lanes edgeAttnChunk's Go spelling does every edge.

func edgeScoreLanes[T Float](a *edgeAttnArgs[T], edges []int, alpha, raw, hs, he, aSrc, aEdge []T) bool {
	return false
}

func edgeExpLanes[T Float](a *edgeAttnArgs[T], edges []int, alpha []T) bool { return false }

func edgeFoldLanes[T Float](a *edgeAttnArgs[T], lo, hi int, alpha, hs, he, agg []T, col int) bool {
	return false
}

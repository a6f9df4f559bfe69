//go:build !amd64

package autodiff

func gemmVectorSupported() bool { return false }

// gemmVectorTile covers no columns: gemmChunk's Go tile does all of them.
func gemmVectorTile[T Float](a, b, out []T, k, n int, accumulate bool) int { return 0 }

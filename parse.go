package hetgrid

import (
	"fmt"
	"strings"
)

// This file gives the package's enums a parse side: for every valid value
// v of BroadcastKind, Kernel and Numerics, Parse*(v.String()) == v, and
// ParseStrategy(string(s)) == s for every PlanStrategy. The CLI tools
// build their flag handling on these.

// ParseBroadcast maps a broadcast-algorithm name to its constant.
// Accepted: auto, flat (or star), ring, pipeline (or segring), tree.
func ParseBroadcast(s string) (BroadcastKind, error) {
	switch strings.ToLower(s) {
	case "auto":
		return BroadcastAuto, nil
	case "flat", "star":
		return FlatBroadcast, nil
	case "ring":
		return RingBroadcast, nil
	case "pipeline", "segring":
		return PipelinedRingBroadcast, nil
	case "tree":
		return TreeBroadcast, nil
	default:
		return 0, fmt.Errorf("hetgrid: unknown broadcast %q (want auto, flat, ring, pipeline or tree)", s)
	}
}

// ParseKernel maps a kernel name to its constant, case-insensitively.
// Accepted: matmul (or mm), lu, qr, cholesky (or chol).
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "matmul", "mm":
		return MatMul, nil
	case "lu":
		return LU, nil
	case "qr":
		return QR, nil
	case "cholesky", "chol":
		return Cholesky, nil
	default:
		return "", fmt.Errorf("hetgrid: unknown kernel %q (want matmul, lu, qr or cholesky)", s)
	}
}

// ParseNumerics maps a numerics-mode name to its constant. Accepted:
// strict, fast.
func ParseNumerics(s string) (Numerics, error) {
	switch strings.ToLower(s) {
	case "strict":
		return Strict, nil
	case "fast":
		return Fast, nil
	default:
		return 0, fmt.Errorf("hetgrid: unknown numerics %q (want strict or fast)", s)
	}
}

// ParseStrategy maps a strategy name to its constant, case-insensitively.
// Accepted: auto, heuristic, exact.
func ParseStrategy(s string) (PlanStrategy, error) {
	switch strings.ToLower(s) {
	case "auto":
		return PlanAuto, nil
	case "heuristic":
		return PlanHeuristic, nil
	case "exact":
		return PlanExact, nil
	default:
		return "", fmt.Errorf("hetgrid: unknown strategy %q (want auto, heuristic or exact)", s)
	}
}

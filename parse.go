package hetgrid

import (
	"fmt"
	"strings"
)

// This file gives the package's enums a parse side: for every valid value
// v of BroadcastKind, Kernel and Numerics, Parse*(v.String()) == v, and
// ParseStrategy(string(s)) == s for every PlanStrategy. The CLI tools
// build their flag handling on these.

// ParseBroadcast maps a broadcast-algorithm name to its constant,
// case-insensitively. Accepted: the kinds' names flat, ring, pipeline and
// tree, and the aliases star and segring.
func ParseBroadcast(s string) (BroadcastKind, error) {
	name := strings.ToLower(s)
	for k := FlatBroadcast; k.Validate() == nil; k++ {
		if name == k.String() {
			return k, nil
		}
	}
	if k, ok := broadcastAliases[name]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("hetgrid: unknown broadcast %q (want flat, ring, pipeline or tree)", s)
}

// broadcastAliases are the other names ParseBroadcast accepts.
var broadcastAliases = map[string]BroadcastKind{"star": FlatBroadcast, "segring": PipelinedRingBroadcast}

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

package matrix

import "fmt"

// FactorNoPivot performs an unpivoted LU elimination of a square matrix in
// place, packing L (implicit unit diagonal) below the diagonal and U on and
// above it. Callers must supply matrices that are safely factorable without
// pivoting (e.g. diagonally dominant); ErrSingular is returned on a zero
// pivot. The blocked distributed kernels use this as their diagonal-block
// factor step.
func FactorNoPivot(a *Dense) error {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("matrix: FactorNoPivot of non-square %d×%d", n, c))
	}
	for k := 0; k < n; k++ {
		piv := a.data[k*a.stride+k]
		if piv == 0 {
			return ErrSingular
		}
		for i := k + 1; i < n; i++ {
			l := a.data[i*a.stride+k] / piv
			a.data[i*a.stride+k] = l
			if l == 0 {
				continue
			}
			urow := a.data[k*a.stride+k+1 : k*a.stride+n]
			irow := a.data[i*a.stride+k+1 : i*a.stride+n]
			for j := range irow {
				irow[j] -= l * urow[j]
			}
		}
	}
	return nil
}

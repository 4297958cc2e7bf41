package series

import "reflect"

// squaredPtr is the code pointer of SquaredDistance, what
// UseSquaredKernel compares a non-nil cost against.
var squaredPtr = reflect.ValueOf(PointDistance(SquaredDistance)).Pointer()

// UseSquaredKernel reports whether dist selects the default squared
// cost, in which case the dynamic-program and lower-bound dispatch sites
// may run their monomorphized kernels. A nil dist (the common case)
// costs one comparison; a non-nil dist is recognised by its code
// pointer, so passing SquaredDistance explicitly also takes the fast
// path. Any other cost — including closures wrapping the squared cost —
// runs the generic path, which is bit-identical and the reference the
// differential tests compare the kernels against.
func UseSquaredKernel(dist PointDistance) bool {
	if dist == nil {
		return true
	}
	return reflect.ValueOf(dist).Pointer() == squaredPtr
}

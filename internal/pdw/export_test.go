package pdw

// OptimizeWindows exposes the window MILP to the external tests, which
// solve wash-free plans with it as the LP reference for CompressBase.
var OptimizeWindows = optimizeWindows

// Package frozen stands for code that may not change: every name it uses
// is a root, though nothing calls Use.
package frozen

import "fix/lib"

// Use uses lib.Frozen.
func Use() string { return lib.Frozen() }

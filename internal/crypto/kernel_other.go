//go:build !amd64 || purego

package crypto

// haveKernel is false: this build has no SHA-256 block kernel, and every
// MAC and digest takes the standard library's path.
const haveKernel = false

func block(*[8]uint32, []byte) { panic("crypto: no SHA-256 block kernel in this build") }

//go:build !optpoison

package core

const poisonEnabled = false

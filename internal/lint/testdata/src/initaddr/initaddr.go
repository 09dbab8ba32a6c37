// Package initaddrtest exercises the initaddr analyzer: the address of
// a variable declared in an if or switch init escapes on one branch, so
// the variable is heap-allocated on every pass; a copy declared inside
// the branch, or a variable that never has its address taken, is fine.
package initaddrtest

import (
	"errors"
	"sync/atomic"
)

var first atomic.Pointer[error]

func step() error { return errors.New("x") }

func ifInit() {
	if err := step(); err != nil {
		first.CompareAndSwap(nil, &err) // want "&err: err is declared in the statement's init"
	}
}

func ifInitParen() *int {
	if n := 3; n > 2 {
		return &(n) // want "&n"
	}
	return nil
}

func switchInit() *error {
	switch err := step(); {
	case err != nil:
		return &err // want "&err"
	}
	return nil
}

func typeSwitchInit(v any) *error {
	switch err := step(); v.(type) {
	case int:
		return &err // want "&err"
	}
	return nil
}

func copyInBranchFine() {
	if err := step(); err != nil {
		kept := err
		first.CompareAndSwap(nil, &kept)
	}
}

func plainDeclFine() *error {
	err := step()
	if err != nil {
		return &err
	}
	return nil
}

func noAddressFine() error {
	if err := step(); err != nil {
		return err
	}
	return nil
}

package fixture

import (
	"errors"
	"fmt"
	"strings"
)

func mightFail() error { return errors.New("boom") }

func parse() (int, error) { return 0, errors.New("bad") }

func okChecked() error {
	err := mightFail()
	if err != nil {
		return err
	}
	return nil
}

func okExplicitDiscard() {
	_ = mightFail()
}

func okTupleDiscard() {
	_, _ = parse()
}

func okFmt() {
	fmt.Println("printer errors are conventionally ignored")
}

func okBuilder() string {
	var b strings.Builder
	b.WriteString("never fails")
	return b.String()
}

func okRetryLoop() error {
	var err error
	for i := 0; i < 3; i++ {
		err = mightFail()
		if err == nil {
			break
		}
	}
	return err
}

func okClosureUse() error {
	err := mightFail()
	f := func() error { return err }
	return f()
}

func okNamedResult() (err error) {
	err = mightFail()
	return
}

func okDeferredRecover() (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("recovered: %v", v)
		}
	}()
	return mightFail()
}

# Sourced by the CI steps that check exit codes.
# expect_exit N command...: fail the step unless the command exits with N
expect_exit() {
  local want=$1 rc=0
  shift
  "$@" || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "$* exited $rc, expected $want"
    exit 1
  fi
}

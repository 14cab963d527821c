type t = { cards : int; words : int }

let zero = { cards = 0; words = 0 }
let v ~cards ~words = { cards; words }
let add a b = { cards = a.cards + b.cards; words = a.words + b.words }
let scale n a = { cards = a.cards * n; words = a.words * n }

type pub = { p_cards : Obs.gauge; p_words : Obs.gauge }

let publisher obs ~component =
  let labels = [ ("component", component) ] in
  {
    p_cards =
      Obs.gauge obs ~labels ~help:"tracked entries held by a bounded state component"
        "nt_state_cards";
    p_words =
      Obs.gauge obs ~labels ~help:"approximate heap words held by a state component"
        "nt_state_words";
  }

let set pub fp =
  Obs.set pub.p_cards (float_of_int fp.cards);
  Obs.set pub.p_words (float_of_int fp.words)

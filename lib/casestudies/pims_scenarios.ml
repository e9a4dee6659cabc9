open Scenarioml

(* Event construction helpers: [sid] is the scenario id, [n] a unique
   suffix within it. Arguments are literals unless built with [ind]. *)
let t sid n event_type args =
  Event.typed
    ~id:(Printf.sprintf "%s-e%s" sid n)
    ~event_type
    (List.map (fun (param, v) -> Event.literal ~param v) args)

let ti sid n event_type args ind_args =
  Event.typed
    ~id:(Printf.sprintf "%s-e%s" sid n)
    ~event_type
    (List.map (fun (param, v) -> Event.literal ~param v) args
    @ List.map (fun (param, v) -> Event.individual ~param v) ind_args)

let tf sid n event_type args fresh_args =
  Event.typed
    ~id:(Printf.sprintf "%s-e%s" sid n)
    ~event_type
    (List.map (fun (param, v) -> Event.literal ~param v) args
    @ List.map (fun (param, label, cls) -> Event.fresh ~param ~label ~cls) fresh_args)

let simple sid n text = Event.simple ~id:(Printf.sprintf "%s-e%s" sid n) text

let alt sid n branches = Event.Alternation { id = Printf.sprintf "%s-a%s" sid n; branches }

let scenario = Scen.scenario ~actors:[ "the-user"; "the-system" ]

(* -------------------- the paper's two focal use cases ------------- *)

let create_portfolio =
  let s = "create-portfolio" in
  scenario ~id:s ~name:"Create portfolio"
    ~description:"The user creates a new, empty portfolio (paper Fig. 2)."
    [
      t s "1" "user-initiates" [ ("function", "create portfolio") ];
      t s "2" "system-prompts" [ ("item", "the portfolio name") ];
      t s "3" "user-enters" [ ("item", "the portfolio name") ];
      alt s "4"
        [
          [
            (* the portfolio is an individual newly created during the
               scenario (ScenarioML's new-individual reference, paper 2) *)
            tf s "4" "system-creates" [] [ ("item", "an empty portfolio", "portfolio") ];
          ];
          (* 4.a: a portfolio with the same name exists *)
          [
            t s "4a1" "system-prompts" [ ("item", "a different name") ];
            t s "4a2" "user-enters" [ ("item", "a different name") ];
            tf s "4a3" "system-creates" [] [ ("item", "an empty portfolio", "portfolio") ];
          ];
        ];
    ]

let get_share_prices =
  let s = "get-share-prices" in
  scenario ~id:s ~name:"Get the current prices of shares"
    ~description:
      "The system downloads, displays and saves current share prices (paper Fig. 2/4)."
    [
      t s "1" "user-initiates" [ ("function", "download current share prices") ];
      alt s "2"
        [
          [
            ti s "2" "system-downloads"
              [ ("item", "the current share prices") ]
              [ ("source", "price-website") ];
            t s "3" "system-displays" [ ("item", "the current share prices") ];
            t s "4" "system-saves" [ ("item", "the current share prices") ];
          ];
          (* 2.a: the system is not able to download *)
          [
            simple s "2a1"
              "The system is not able to download (due to network failure, site down, ...)";
            t s "2a2" "system-retrieves" [ ("item", "the current value") ];
            t s "2a3" "system-displays" [ ("item", "the current value saved from before") ];
            t s "2a4" "system-prompts" [ ("item", "a change to the saved value") ];
          ];
        ];
    ]

(* -------------------- the remaining 20 use cases ------------------ *)

let rename_portfolio =
  let s = "rename-portfolio" in
  scenario ~id:s ~name:"Rename portfolio"
    [
      t s "1" "user-initiates" [ ("function", "rename portfolio") ];
      t s "2" "user-selects" [ ("item", "the portfolio to rename") ];
      t s "3" "system-prompts" [ ("item", "the new name") ];
      t s "4" "user-enters" [ ("item", "the new name") ];
      t s "5" "system-updates" [ ("item", "the portfolio name") ];
    ]

let delete_portfolio =
  let s = "delete-portfolio" in
  scenario ~id:s ~name:"Delete portfolio"
    [
      t s "1" "user-initiates" [ ("function", "delete portfolio") ];
      t s "2" "user-selects" [ ("item", "the portfolio to delete") ];
      t s "3" "user-confirms" [ ("action", "the deletion") ];
      t s "4" "system-deletes" [ ("item", "the portfolio and its investments") ];
    ]

let add_investment =
  let s = "add-investment" in
  scenario ~id:s ~name:"Add investment"
    [
      t s "1" "user-initiates" [ ("function", "add investment") ];
      t s "2" "user-selects" [ ("item", "the target portfolio") ];
      t s "3" "system-prompts" [ ("item", "the investment details") ];
      t s "4" "user-enters" [ ("item", "the investment details") ];
      t s "5" "system-creates" [ ("item", "the investment record") ];
    ]

let edit_investment =
  let s = "edit-investment" in
  scenario ~id:s ~name:"Edit investment"
    [
      t s "1" "user-initiates" [ ("function", "edit investment") ];
      t s "2" "user-selects" [ ("item", "the investment to edit") ];
      t s "3" "user-enters" [ ("item", "the changed investment details") ];
      t s "4" "system-updates" [ ("item", "the investment record") ];
    ]

let delete_investment =
  let s = "delete-investment" in
  scenario ~id:s ~name:"Delete investment"
    [
      t s "1" "user-initiates" [ ("function", "delete investment") ];
      t s "2" "user-selects" [ ("item", "the investment to delete") ];
      t s "3" "user-confirms" [ ("action", "the deletion") ];
      t s "4" "system-deletes" [ ("item", "the investment record") ];
    ]

let add_transaction =
  let s = "add-transaction" in
  scenario ~id:s ~name:"Add transaction"
    [
      t s "1" "user-initiates" [ ("function", "add transaction") ];
      t s "2" "user-selects" [ ("item", "the investment concerned") ];
      t s "3" "user-enters" [ ("item", "the transaction details") ];
      t s "4" "system-records" [ ("item", "the transaction record") ];
    ]

let edit_transaction =
  let s = "edit-transaction" in
  scenario ~id:s ~name:"Edit transaction"
    [
      t s "1" "user-initiates" [ ("function", "edit transaction") ];
      t s "2" "user-selects" [ ("item", "the transaction to edit") ];
      t s "3" "user-enters" [ ("item", "the changed transaction details") ];
      t s "4" "system-records" [ ("item", "the corrected transaction record") ];
    ]

let delete_transaction =
  let s = "delete-transaction" in
  scenario ~id:s ~name:"Delete transaction"
    [
      t s "1" "user-initiates" [ ("function", "delete transaction") ];
      t s "2" "user-selects" [ ("item", "the transaction to delete") ];
      t s "3" "user-confirms" [ ("action", "the deletion") ];
      t s "4" "system-deletes" [ ("item", "the transaction record") ];
    ]

let compute_networth =
  let s = "compute-networth" in
  scenario ~id:s ~name:"Compute net worth"
    [
      t s "1" "user-initiates" [ ("function", "compute net worth") ];
      t s "2" "system-retrieves" [ ("item", "the saved prices and investments") ];
      t s "3" "system-computes" [ ("item", "the net worth") ];
      t s "4" "system-displays" [ ("item", "the net worth") ];
    ]

let compute_roi =
  let s = "compute-roi" in
  scenario ~id:s ~name:"Compute rate of return"
    [
      t s "1" "user-initiates" [ ("function", "compute rate of return") ];
      t s "2" "user-selects" [ ("item", "the investment or portfolio") ];
      t s "3" "system-retrieves" [ ("item", "the relevant transactions and prices") ];
      t s "4" "system-computes" [ ("item", "the rate of return") ];
      t s "5" "system-displays" [ ("item", "the rate of return") ];
    ]

let display_portfolio =
  let s = "display-portfolio" in
  scenario ~id:s ~name:"Display portfolio"
    [
      t s "1" "user-initiates" [ ("function", "display portfolio") ];
      t s "2" "user-selects" [ ("item", "the portfolio to display") ];
      t s "3" "system-retrieves" [ ("item", "the portfolio contents") ];
      t s "4" "system-displays" [ ("item", "the portfolio contents") ];
    ]

let set_alert =
  let s = "set-alert" in
  scenario ~id:s ~name:"Set share price alert"
    [
      t s "1" "user-initiates" [ ("function", "set alert") ];
      t s "2" "user-selects" [ ("item", "the share to watch") ];
      t s "3" "user-enters" [ ("item", "the threshold price") ];
      t s "4" "system-creates" [ ("item", "the alert") ];
    ]

let show_alerts =
  let s = "show-alerts" in
  scenario ~id:s ~name:"Show triggered alerts"
    [
      t s "1" "user-initiates" [ ("function", "show alerts") ];
      t s "2" "system-retrieves" [ ("item", "the saved alerts and current prices") ];
      t s "3" "system-alerts" [ ("message", "shares whose price crossed the threshold") ];
    ]

let delete_alert =
  let s = "delete-alert" in
  scenario ~id:s ~name:"Delete alert"
    [
      t s "1" "user-initiates" [ ("function", "delete alert") ];
      t s "2" "user-selects" [ ("item", "the alert to delete") ];
      t s "3" "system-deletes" [ ("item", "the alert") ];
    ]

let login =
  let s = "login" in
  scenario ~id:s ~name:"Log in"
    [
      t s "1" "user-initiates" [ ("function", "log in") ];
      t s "2" "system-prompts" [ ("item", "the password") ];
      t s "3" "user-enters" [ ("item", "the password") ];
      alt s "4"
        [
          [ t s "4" "system-authenticates" [] ];
          [
            simple s "4a1" "The password does not match.";
            t s "4a2" "system-prompts" [ ("item", "the password again") ];
            t s "4a3" "user-enters" [ ("item", "the password again") ];
            t s "4a4" "system-authenticates" [];
          ];
        ];
    ]

let change_password =
  let s = "change-password" in
  scenario ~id:s ~name:"Change password"
    [
      t s "1" "user-initiates" [ ("function", "change password") ];
      t s "2" "system-prompts" [ ("item", "the old and new passwords") ];
      t s "3" "user-enters" [ ("item", "the old and new passwords") ];
      t s "4" "system-validates" [ ("item", "the old password") ];
      t s "5" "system-updates" [ ("item", "the stored password") ];
    ]

let save_session =
  let s = "save-session" in
  scenario ~id:s ~name:"Save session"
    [
      t s "1" "user-initiates" [ ("function", "save session") ];
      t s "2" "system-saves" [ ("item", "the current session data") ];
      t s "3" "system-displays" [ ("item", "a confirmation") ];
    ]

let load_session =
  let s = "load-session" in
  scenario ~id:s ~name:"Load session"
    [
      t s "1" "user-initiates" [ ("function", "load session") ];
      t s "2" "system-retrieves" [ ("item", "the saved session data") ];
      t s "3" "system-displays" [ ("item", "the restored portfolios") ];
    ]

let backup_repository =
  let s = "backup-repository" in
  scenario ~id:s ~name:"Back up repository"
    [
      t s "1" "user-initiates" [ ("function", "back up data") ];
      t s "2" "user-enters" [ ("item", "the backup destination") ];
      t s "3" "system-saves" [ ("item", "a copy of the repository data") ];
      t s "4" "system-displays" [ ("item", "a confirmation") ];
    ]

let restore_repository =
  let s = "restore-repository" in
  scenario ~id:s ~name:"Restore repository"
    [
      t s "1" "user-initiates" [ ("function", "restore data") ];
      t s "2" "user-selects" [ ("item", "the backup to restore") ];
      t s "3" "user-confirms" [ ("action", "overwriting current data") ];
      t s "4" "system-updates" [ ("item", "the repository data") ];
      t s "5" "system-displays" [ ("item", "the restored state") ];
    ]

let all =
  [
    create_portfolio;
    rename_portfolio;
    delete_portfolio;
    add_investment;
    edit_investment;
    delete_investment;
    add_transaction;
    edit_transaction;
    delete_transaction;
    compute_networth;
    compute_roi;
    get_share_prices;
    display_portfolio;
    set_alert;
    show_alerts;
    delete_alert;
    login;
    change_password;
    save_session;
    load_session;
    backup_repository;
    restore_repository;
  ]

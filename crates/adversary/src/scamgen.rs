//! Scam text generation.
//!
//! §5.3 distills hijacker scam mail to five principles; the generator
//! instantiates all five so the defender's classifier
//! (`mhw_defense::classifier`) is exercised against realistic adversary
//! output rather than strawmen:
//!
//! 1. a credible story with distressing detail,
//! 2. sympathy-evoking language,
//! 3. an appearance of limited financial risk (loan + speedy repayment),
//! 4. language discouraging out-of-band verification,
//! 5. an untraceable, safe-looking transfer mechanism (Western Union /
//!    MoneyGram by name).
//!
//! Texts are localized to the crew's working language (§7: the Ivory
//! Coast crews scam French speakers, the Nigerian crews English
//! speakers) and lightly personalized per victim, matching §5.3's
//! "semi-personalized" characterization.

use mhw_simclock::SimRng;
use mhw_types::Language;
use serde::{Deserialize, Serialize};

/// The story line of a scam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScamStyle {
    /// Robbed while travelling — the paper's flagship example.
    MuggedInCity,
    /// A relative with a sudden medical emergency.
    SickRelative,
}

impl ScamStyle {
    /// Draw a style with the observed story-frequency split.
    pub fn sample(rng: &mut SimRng) -> ScamStyle {
        if rng.chance(0.65) {
            ScamStyle::MuggedInCity
        } else {
            ScamStyle::SickRelative
        }
    }
}

/// Cities used in Mugged-In-"City" stories.
const CITIES: [&str; 6] = [
    "West Midlands, UK",
    "Manila, Philippines",
    "Madrid, Spain",
    "Limassol, Cyprus",
    "Kuala Lumpur, Malaysia",
    "Odessa, Ukraine",
];

/// Generate one scam message. `victim_first_name` personalizes the
/// greeting (semi-personalization); `customized` produces the longer,
/// higher-effort variant §5.3 observes in the ≤10-recipient cases.
pub fn generate_scam(
    style: ScamStyle,
    language: Language,
    victim_first_name: &str,
    customized: bool,
    rng: &mut SimRng,
) -> (String, String) {
    let city = CITIES[rng.below(CITIES.len() as u64) as usize];
    match language {
        Language::French => french_scam(style, victim_first_name, city, customized),
        Language::Spanish => spanish_scam(style, victim_first_name, city, customized),
        _ => english_scam(style, victim_first_name, city, customized),
    }
}

fn english_scam(
    style: ScamStyle,
    name: &str,
    city: &str,
    customized: bool,
) -> (String, String) {
    let greeting = if customized {
        format!("Dear {name}, I hate to ask you this of all people, but you are the only one I can trust right now.")
    } else {
        "Sorry to bother you with this.".to_string()
    };
    match style {
        ScamStyle::MuggedInCity => (
            "Terrible situation, please help".to_string(),
            format!(
                "{greeting} My family and I came down here to {city} for a \
                 short vacation and we were mugged last night in an alley by \
                 a gang of thugs on our way back from shopping; one of them \
                 had a knife poking my neck for almost two minutes and \
                 everything we had on us including my cell phone and credit \
                 cards were all stolen. I'm urgently in need of some money to \
                 pay for my hotel bills and my flight ticket home, and will \
                 payback as soon as I get back home. My phone was stolen so \
                 email is the only way to reach me. Please help by sending a \
                 money transfer via Western Union to my name."
            ),
        ),
        ScamStyle::SickRelative => (
            "Sorry to bother you with this".to_string(),
            format!(
                "{greeting} I am presently in {city} with my ill cousin. She \
                 is suffering from a kidney disease and must undergo a \
                 transplant to save her life. I urgently need a temporary \
                 emergency loan to cover the procedure and I promise to repay \
                 you the moment I am back. My phone was stolen at the \
                 hospital, so please don't try to call — just send the money \
                 via MoneyGram and I will confirm by email."
            ),
        ),
    }
}

fn french_scam(style: ScamStyle, name: &str, city: &str, customized: bool) -> (String, String) {
    let greeting = if customized {
        format!("Cher {name}, je suis désolé de te demander cela, mais tu es la seule personne en qui j'ai confiance.")
    } else {
        "Désolé de te déranger avec ceci.".to_string()
    };
    match style {
        ScamStyle::MuggedInCity => (
            "Situation urgente, s'il te plaît aide-moi".to_string(),
            format!(
                "{greeting} Nous sommes à {city} pour de courtes vacances et \
                 nous avons été agressés hier soir ; on nous a tout volé, y \
                 compris mon téléphone et mes cartes. J'ai urgent besoin \
                 d'argent pour payer l'hôtel et le billet de retour, je te \
                 rembourse dès mon retour (please help, urgent). Mon \
                 téléphone a été volé (phone was stolen), ne m'appelle pas — \
                 envoie un transfert Western Union à mon nom."
            ),
        ),
        ScamStyle::SickRelative => (
            "Désolé de te déranger".to_string(),
            format!(
                "{greeting} Je suis à {city} avec ma cousine malade qui doit \
                 subir une greffe de rein. J'ai urgent besoin d'un prêt \
                 d'urgence (emergency loan), je te rembourse très vite \
                 (repay). Mon téléphone a été volé (phone was stolen), \
                 envoie l'argent par MoneyGram s'il te plaît."
            ),
        ),
    }
}

fn spanish_scam(style: ScamStyle, name: &str, city: &str, customized: bool) -> (String, String) {
    let greeting = if customized {
        format!("Querido {name}, lamento pedirte esto, pero eres la única persona en quien confío.")
    } else {
        "Perdona que te moleste con esto.".to_string()
    };
    match style {
        ScamStyle::MuggedInCity => (
            "Situación urgente, por favor ayuda".to_string(),
            format!(
                "{greeting} Estamos en {city} de vacaciones y anoche nos \
                 asaltaron (we were robbed); se llevaron todo, incluido mi \
                 teléfono y las tarjetas. Necesito dinero urgente (urgent) \
                 para el hotel y el vuelo de vuelta; te lo devuelvo al llegar \
                 (repay). Mi teléfono fue robado (phone was stolen), no me \
                 llames — envía un giro por Western Union a mi nombre."
            ),
        ),
        ScamStyle::SickRelative => (
            "Perdona la molestia".to_string(),
            format!(
                "{greeting} Estoy en {city} con mi prima enferma que necesita \
                 un trasplante de riñón. Necesito un préstamo de emergencia \
                 (emergency loan) urgente y te lo devuelvo pronto (repay). Mi \
                 teléfono fue robado (phone was stolen); por favor envía el \
                 dinero por MoneyGram."
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_scam_instantiates_all_five_principles() {
        let mut rng = SimRng::from_seed(1);
        for style in [ScamStyle::MuggedInCity, ScamStyle::SickRelative] {
            let (_, body) = generate_scam(style, Language::English, "Alex", false, &mut rng);
            let b = body.to_ascii_lowercase();
            // 1: story detail; 2: plea; 3: repayment; 4: anti-verification;
            // 5: transfer mechanism.
            assert!(
                b.contains("mugged") || b.contains("kidney"),
                "story: {b}"
            );
            assert!(b.contains("urgent"), "plea: {b}");
            assert!(b.contains("payback") || b.contains("repay"), "repayment: {b}");
            assert!(b.contains("phone was stolen") || b.contains("don't try to call"), "anti-verification: {b}");
            assert!(
                b.contains("western union") || b.contains("moneygram"),
                "mechanism: {b}"
            );
        }
    }

    #[test]
    fn customization_personalizes() {
        let mut rng = SimRng::from_seed(2);
        let (_, plain) = generate_scam(ScamStyle::MuggedInCity, Language::English, "Sam", false, &mut rng);
        let (_, custom) = generate_scam(ScamStyle::MuggedInCity, Language::English, "Sam", true, &mut rng);
        assert!(!plain.contains("Sam"));
        assert!(custom.contains("Sam"));
        assert!(custom.len() > plain.len() - 50); // customized is not shorter
    }

    #[test]
    fn localization_matches_language() {
        let mut rng = SimRng::from_seed(3);
        let (_, fr) = generate_scam(ScamStyle::MuggedInCity, Language::French, "Luc", false, &mut rng);
        assert!(fr.contains("Western Union"));
        assert!(fr.contains("agressés") || fr.contains("volé"));
        let (_, es) = generate_scam(ScamStyle::SickRelative, Language::Spanish, "Ana", false, &mut rng);
        assert!(es.contains("MoneyGram"));
        assert!(es.contains("préstamo") || es.contains("emergencia"));
    }

    #[test]
    fn defenders_classifier_catches_generated_scams() {
        // The generator and the classifier are developed against the
        // same five principles; generated scams must trip it.
        use mhw_defense::classifier::{classify_mail, MailClass};
        use mhw_mailsys::{Message, MessageKind};
        use mhw_types::{AccountId, EmailAddress, MessageId, SimTime};
        let mut rng = SimRng::from_seed(4);
        for style in [ScamStyle::MuggedInCity, ScamStyle::SickRelative] {
            for lang in [Language::English, Language::French, Language::Spanish] {
                let (subject, body) = generate_scam(style, lang, "Casey", false, &mut rng);
                let m = Message {
                    id: MessageId(0),
                    owner: AccountId(0),
                    from: EmailAddress::new("victim", "homemail.com"),
                    to: vec![],
                    subject: subject.into(),
                    body: body.into(),
                    attachments: vec![],
                    kind: MessageKind::Scam,
                    reply_to: None,
                    at: SimTime::EPOCH,
                    read: false,
                    starred: false,
                };
                assert_eq!(
                    classify_mail(&m),
                    MailClass::Scam,
                    "{style:?}/{lang:?} must classify as scam"
                );
            }
        }
    }

    #[test]
    fn style_mix_favours_mugged() {
        let mut rng = SimRng::from_seed(5);
        let n = 10_000;
        let mugged = (0..n)
            .filter(|_| ScamStyle::sample(&mut rng) == ScamStyle::MuggedInCity)
            .count() as f64
            / n as f64;
        assert!((mugged - 0.65).abs() < 0.02, "{mugged}");
    }
}
